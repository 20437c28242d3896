/**
 * @file
 * Lexer/parser for the litmus DSL (line oriented; '#' starts a comment).
 *
 * Grammar:
 *
 *   test      := [ name ] init table clause
 *   name      := "name" ident
 *   init      := "init" "{" { ident "=" num [ "sync" ] ";" } "}"
 *   table     := header { row }
 *   header    := "P0" { "|" "P" num } ";"
 *   row       := cell { "|" cell } ";"      ; one cell per processor
 *   cell      := [ ident ":" ] [ insn ]     ; both parts optional
 *   insn      := "load"  reg "," ident
 *              | "store" ident "," ( reg | num )
 *              | "test"  reg "," ident           ; read-only sync
 *              | "unset" ident [ "," ( reg | num ) ] ; write-only sync
 *              | "tas"   reg "," ident [ "," num ]   ; read-write sync
 *              | "movi"  reg "," num
 *              | "addi"  reg "," reg "," num
 *              | "beq"   reg "," num "," ident
 *              | "bne"   reg "," num "," ident
 *              | "fence" | "nop" [ num ] | "halt"
 *   clause    := "exists" "(" cond ")"
 *              | "forbidden" [ "always" ] "(" cond ")"
 *   cond      := conj { "||" conj }
 *   conj      := atom { "&&" atom }
 *   atom      := "(" cond ")" | "!" atom | term
 *   term      := ( "P" num ":" reg | ident ) ( "==" | "!=" ) num
 *   reg       := "r" num
 *
 * Locations are symbolic; every location used by a statement or a memory
 * term must be declared in the init section. A num is one 64-bit word:
 * 0 ... 2^64-1, or a negative down to -2^63 (two's complement); register
 * and processor numbers must fit in an int. Parse errors, including a
 * number out of those ranges, throw LitmusError carrying file and
 * 1-based line.
 */

#ifndef WO_LITMUS_PARSER_HH
#define WO_LITMUS_PARSER_HH

#include <stdexcept>
#include <string>

#include "litmus/ast.hh"

namespace wo {
namespace litmus_dsl {

/** Parse/compile failure; what() is "file:line: message". */
class LitmusError : public std::runtime_error
{
  public:
    LitmusError(std::string file, int line, const std::string &msg)
        : std::runtime_error(file + ":" + std::to_string(line) + ": " +
                             msg),
          file_(std::move(file)), line_(line)
    {}

    const std::string &file() const { return file_; }

    /** 1-based source line of the error (0 when not line-specific). */
    int line() const { return line_; }

  private:
    std::string file_;
    int line_;
};

/** Parse litmus source text. @p file labels diagnostics. */
LitmusTest parseLitmus(const std::string &source, const std::string &file);

/** Parse a .litmus file from disk. */
LitmusTest parseLitmusFile(const std::string &path);

/** Render a condition back to source syntax. */
std::string toString(const Cond &c);

/** Render a clause back to source syntax. */
std::string toString(const Clause &c);

} // namespace litmus_dsl
} // namespace wo

#endif // WO_LITMUS_PARSER_HH
