"""Source normalisation: one statement per line.

TunIO marks code to keep *per line*, so before parsing it runs "a custom
clang-format preprocessing step which avoids line breaking with a
200-character column limit while placing curly braces on distinct lines
and splitting multi-statement lines".  :func:`format_source` reproduces
that: it re-emits the token stream so that

* every statement ends its line at the ``;`` (except inside ``for(...)``
  headers, tracked by paren depth),
* every ``{`` and ``}`` sits on its own line,
* each preprocessor directive occupies one (unwrapped) line,
* no line is ever wrapped (the 200-column limit is a no-break limit).
"""

from __future__ import annotations

from .lexer import Token, TokenKind, tokenize

__all__ = ["format_source", "COLUMN_LIMIT"]

#: The paper's no-break column limit (we never wrap, so this is advisory).
COLUMN_LIMIT = 200

_NO_SPACE_BEFORE = {";", ",", ")", "]", "++", "--", ".", "->"}
_NO_SPACE_AFTER = {"(", "[", "!", "~", ".", "->"}


def _join(tokens: list[Token]) -> str:
    """Render a token run with lightweight C spacing rules."""
    parts: list[str] = []
    prev: Token | None = None
    for tok in tokens:
        text = tok.text
        if prev is None:
            parts.append(text)
            prev = tok
            continue
        no_space = False
        if text in _NO_SPACE_BEFORE:
            no_space = True
        elif prev.text in _NO_SPACE_AFTER:
            no_space = True
        elif text == "(" and prev.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            # call/definition parens hug the name, but control keywords
            # conventionally take a space: if (, for (, while (...
            no_space = prev.text not in ("if", "for", "while", "switch", "return", "sizeof")
        elif text == "(" and prev.text in (")", "]"):
            no_space = True
        elif text in ("++", "--") and prev.kind == TokenKind.IDENT:
            no_space = True
        elif prev.text in ("++", "--") and tok.kind == TokenKind.IDENT:
            no_space = True
        elif text == "[" and prev.kind in (TokenKind.IDENT, TokenKind.STRING) :
            no_space = True
        elif prev.text == "*" and tok.kind == TokenKind.IDENT:
            # pointer declarator hugs the name: char *buf
            no_space = True
        elif text == "*" and prev.kind == TokenKind.KEYWORD:
            pass  # "char *" keeps the space before '*'
        parts.append(text if no_space else " " + text)
        prev = tok
    return "".join(parts)


def format_source(source: str) -> str:
    """Normalise C source to the one-statement-per-line form the marking
    loop operates on.  Idempotent: formatting formatted output yields the
    same text."""
    tokens = tokenize(source)
    lines: list[str] = []
    current: list[Token] = []
    paren_depth = 0
    indent = 0
    init_brace_depth = 0  # braces inside `= {...}` initialisers stay inline

    def flush() -> None:
        nonlocal current
        if current:
            lines.append("    " * indent + _join(current))
            current = []

    for tok in tokens:
        if tok.kind == TokenKind.EOF:
            break
        if tok.kind == TokenKind.DIRECTIVE:
            flush()
            lines.append(tok.text)
            continue
        if tok.kind == TokenKind.PUNCT:
            if tok.text == "(":
                paren_depth += 1
            elif tok.text == ")":
                paren_depth = max(0, paren_depth - 1)
            elif tok.text == "{" and paren_depth == 0:
                if init_brace_depth > 0 or (
                    current and current[-1].text in ("=", ",", "{")
                ):
                    init_brace_depth += 1
                    current.append(tok)
                    continue
                flush()
                lines.append("    " * indent + "{")
                indent += 1
                continue
            elif tok.text == "}" and paren_depth == 0:
                if init_brace_depth > 0:
                    init_brace_depth -= 1
                    current.append(tok)
                    continue
                flush()
                indent = max(0, indent - 1)
                lines.append("    " * indent + "}")
                continue
            elif tok.text == ";" and paren_depth == 0:
                # `};` from struct/array initialisers attaches to the brace.
                if not current and lines and lines[-1].endswith("}"):
                    lines[-1] += ";"
                    continue
                current.append(tok)
                flush()
                continue
        current.append(tok)
    flush()
    return "\n".join(lines) + "\n"
