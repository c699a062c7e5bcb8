"""Structural line parser: the Discovery component's AST substitute.

The paper marks code to keep per *line* (Clang's statement granularity is
too nuanced), so what the marking loop really needs from the "AST" is,
for every formatted line:

* its kind (directive / function head / loop / conditional / declaration
  / expression / brace),
* which variables it defines and uses,
* which functions it calls (with argument identifiers, and which
  arguments are address-of outputs),
* its contextual parent (the enclosing loop/conditional/function header).

:func:`parse_source` computes exactly that over the output of
:func:`~repro.discovery.formatter.format_source`.  Sources must be
brace-delimited (the formatter guarantees one statement per line and
braces on their own lines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from .lexer import Token, TokenKind, tokenize

__all__ = ["LineKind", "CallInfo", "SourceLine", "FunctionInfo", "ParsedSource", "parse_source"]


class LineKind(Enum):
    DIRECTIVE = auto()
    FUNC_HEAD = auto()
    BRACE_OPEN = auto()
    BRACE_CLOSE = auto()
    FOR = auto()
    WHILE = auto()
    DO = auto()
    IF = auto()
    ELSE = auto()
    DECL = auto()
    EXPR = auto()
    RETURN = auto()
    BLANK = auto()


#: Type names that begin declarations in addition to C keywords.  Covers
#: the HDF5/MPI/stdio types the target applications use.
DECL_TYPES = frozenset(
    """
    hid_t hsize_t hssize_t herr_t haddr_t
    MPI_Comm MPI_Info MPI_Status MPI_Request MPI_File MPI_Datatype MPI_Offset
    FILE size_t ssize_t time_t clock_t
    int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t
    """.split()
)

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_HEADER_KINDS = {LineKind.FOR, LineKind.WHILE, LineKind.IF, LineKind.ELSE, LineKind.DO, LineKind.FUNC_HEAD}


@dataclass(frozen=True)
class CallInfo:
    """One function call found on a line."""

    name: str
    #: Identifiers referenced in the argument list.
    arg_idents: tuple[str, ...]
    #: Identifiers passed by address (``&x``): outputs of the call.
    out_idents: tuple[str, ...]
    #: String literal arguments (file paths etc.), unquoted.
    string_args: tuple[str, ...]


@dataclass
class SourceLine:
    """One formatted line with its structural annotations."""

    index: int
    text: str
    kind: LineKind
    defs: frozenset[str] = frozenset()
    uses: frozenset[str] = frozenset()
    calls: tuple[CallInfo, ...] = ()
    #: Line index of the contextual parent header (or None at top level).
    parent: int | None = None
    #: For header lines: indices of their '{' / '}' lines.
    block_open: int | None = None
    block_close: int | None = None
    #: Name of the enclosing function (None outside functions).
    func: str | None = None


@dataclass
class FunctionInfo:
    """A function definition found in the file."""

    name: str
    head: int
    block_open: int
    block_close: int
    #: Parameter names.
    params: tuple[str, ...] = ()


@dataclass
class ParsedSource:
    """The parsed file: lines plus function and call-site indexes."""

    lines: list[SourceLine]
    functions: dict[str, FunctionInfo]
    #: function name -> lines that call it.
    call_sites: dict[str, list[int]] = field(default_factory=dict)

    def enclosing_headers(self, index: int) -> list[int]:
        """All transitive contextual parents of a line, innermost first."""
        out: list[int] = []
        cur = self.lines[index].parent
        while cur is not None:
            out.append(cur)
            cur = self.lines[cur].parent
        return out


def _extract_calls(tokens: list[Token]) -> tuple[CallInfo, ...]:
    calls: list[CallInfo] = []
    i = 0
    while i < len(tokens) - 1:
        tok, nxt = tokens[i], tokens[i + 1]
        if (
            tok.kind == TokenKind.IDENT
            and nxt.kind == TokenKind.PUNCT
            and nxt.text == "("
            and not (i > 0 and tokens[i - 1].text in ("->", "."))
        ):
            depth = 0
            j = i + 1
            arg_idents: list[str] = []
            out_idents: list[str] = []
            string_args: list[str] = []
            while j < len(tokens):
                t = tokens[j]
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif t.kind == TokenKind.IDENT:
                    arg_idents.append(t.text)
                    if tokens[j - 1].text == "&":
                        out_idents.append(t.text)
                elif t.kind == TokenKind.STRING:
                    string_args.append(t.text[1:-1])
                j += 1
            calls.append(
                CallInfo(
                    name=tok.text,
                    arg_idents=tuple(arg_idents),
                    out_idents=tuple(out_idents),
                    string_args=tuple(string_args),
                )
            )
        i += 1
    return tuple(calls)


def _defs_uses(tokens: list[Token], kind: LineKind) -> tuple[frozenset[str], frozenset[str]]:
    """Defined and used identifiers of one statement line."""
    defs: set[str] = set()
    uses: set[str] = set()

    # Called function names are not variable uses.
    call_names = {
        t.text
        for i, t in enumerate(tokens)
        if t.kind == TokenKind.IDENT
        and i + 1 < len(tokens)
        and tokens[i + 1].text == "("
    }

    def idents(toks: list[Token]) -> set[str]:
        return {
            t.text
            for t in toks
            if t.kind == TokenKind.IDENT and t.text not in call_names and t.text not in DECL_TYPES
        }

    # Split at top-level assignment operators (left-to-right, first one).
    depth = 0
    split_at: int | None = None
    for i, t in enumerate(tokens):
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        elif depth == 0 and t.kind == TokenKind.PUNCT and t.text in _ASSIGN_OPS:
            split_at = i
            break

    if split_at is not None:
        lhs, op, rhs = tokens[:split_at], tokens[split_at], tokens[split_at + 1 :]
        lhs_idents = idents(lhs)
        if lhs_idents:
            # `buf[i] = x`: buf is defined, i is used.
            base = next(
                (t.text for t in lhs if t.kind == TokenKind.IDENT and t.text in lhs_idents),
                None,
            )
            if base is not None:
                defs.add(base)
                uses |= lhs_idents - {base}
        uses |= idents(rhs)
        if op.text != "=":
            uses |= defs  # compound assignment reads the target too
    else:
        uses |= idents(tokens)
        # `i++` / `++i` define (and use) their operand.
        for i, t in enumerate(tokens):
            if t.text in ("++", "--"):
                neighbor = tokens[i - 1] if i > 0 and tokens[i - 1].kind == TokenKind.IDENT else (
                    tokens[i + 1] if i + 1 < len(tokens) and tokens[i + 1].kind == TokenKind.IDENT else None
                )
                if neighbor is not None:
                    defs.add(neighbor.text)

    if kind == LineKind.DECL and split_at is not None:
        # `hid_t file_id = H5Fcreate(...)`: the declared name is the def.
        pass
    elif kind == LineKind.DECL:
        # Declaration without initialiser: every identifier is a def.
        defs |= idents(tokens)
        uses -= defs

    # Address-of arguments are outputs of the call on this line.
    for i, t in enumerate(tokens):
        if t.text == "&" and i + 1 < len(tokens) and tokens[i + 1].kind == TokenKind.IDENT:
            name = tokens[i + 1].text
            if name not in call_names:
                defs.add(name)

    return frozenset(defs), frozenset(uses)


def _classify(tokens: list[Token], text: str, at_top_level: bool, next_is_brace: bool) -> LineKind:
    if text.lstrip().startswith("#"):
        return LineKind.DIRECTIVE
    if not tokens:
        return LineKind.BLANK
    first = tokens[0]
    stripped = text.strip()
    if stripped in ("{",):
        return LineKind.BRACE_OPEN
    if stripped in ("}", "};"):
        return LineKind.BRACE_CLOSE
    if first.text == "for":
        return LineKind.FOR
    if first.text == "while":
        return LineKind.WHILE
    if first.text == "do":
        return LineKind.DO
    if first.text == "if":
        return LineKind.IF
    if first.text == "else":
        return LineKind.ELSE
    if first.text == "return":
        return LineKind.RETURN
    starts_with_type = first.kind == TokenKind.KEYWORD and first.text in (
        "int", "long", "short", "char", "float", "double", "unsigned", "signed",
        "void", "const", "static", "struct",
    )
    starts_with_typedef = first.kind == TokenKind.IDENT and first.text in DECL_TYPES
    if starts_with_type or starts_with_typedef:
        if at_top_level and next_is_brace:
            return LineKind.FUNC_HEAD
        return LineKind.DECL
    return LineKind.EXPR


def parse_source(formatted: str) -> ParsedSource:
    """Parse formatted source (one statement per line) into the
    line-level structure the marking loop consumes."""
    raw_lines = formatted.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()

    # Tokenize per line so token positions map trivially to lines.
    per_line_tokens: list[list[Token]] = []
    for text in raw_lines:
        if text.lstrip().startswith("#"):
            per_line_tokens.append([])
            continue
        toks = [t for t in tokenize(text) if t.kind != TokenKind.EOF]
        per_line_tokens.append(toks)

    lines: list[SourceLine] = []
    functions: dict[str, FunctionInfo] = {}

    # First pass: classification.
    brace_depth = 0
    for idx, text in enumerate(raw_lines):
        toks = per_line_tokens[idx]
        next_brace = idx + 1 < len(raw_lines) and raw_lines[idx + 1].strip() == "{"
        kind = _classify(toks, text, brace_depth == 0, next_brace)
        if kind == LineKind.BRACE_OPEN:
            brace_depth += 1
        elif kind == LineKind.BRACE_CLOSE:
            brace_depth -= 1
        lines.append(SourceLine(index=idx, text=text, kind=kind))

    # Second pass: structure (parents, blocks, functions) + semantics.
    stack: list[int] = []  # header line indices whose blocks are open
    pending_header: int | None = None
    current_func: str | None = None
    func_stack_depth: list[int] = []

    for idx, line in enumerate(lines):
        toks = per_line_tokens[idx]
        if line.kind == LineKind.DIRECTIVE or line.kind == LineKind.BLANK:
            line.parent = stack[-1] if stack else None
            line.func = current_func
            continue

        if line.kind == LineKind.BRACE_OPEN:
            line.parent = pending_header if pending_header is not None else (stack[-1] if stack else None)
            line.func = current_func
            if pending_header is not None:
                lines[pending_header].block_open = idx
                stack.append(pending_header)
                pending_header = None
            else:
                stack.append(idx)  # anonymous block: the brace is its own header
            continue

        if line.kind == LineKind.BRACE_CLOSE:
            if stack:
                header = stack.pop()
                lines[header].block_close = idx
                line.parent = lines[header].parent
                if lines[header].kind == LineKind.FUNC_HEAD and len(stack) == 0:
                    current_func = None
            else:
                line.parent = None
            line.func = current_func
            continue

        line.parent = stack[-1] if stack else None
        line.func = current_func

        defs, uses = _defs_uses(toks, line.kind)
        line.defs, line.uses = defs, uses
        line.calls = _extract_calls(toks)

        if line.kind in _HEADER_KINDS:
            pending_header = idx
            if line.kind == LineKind.FUNC_HEAD:
                calls = line.calls
                name = calls[0].name if calls else None
                if name:
                    current_func = name
                    params = calls[0].arg_idents
                    functions[name] = FunctionInfo(
                        name=name, head=idx, block_open=-1, block_close=-1, params=params
                    )
                    # A function head defines its parameters.
                    line.defs = frozenset(params)
                    line.uses = frozenset()
                    line.calls = ()
        line.func = current_func if line.kind != LineKind.FUNC_HEAD else current_func

    # Fix up function block ranges now that blocks are matched.
    for fn in functions.values():
        head = lines[fn.head]
        fn.block_open = head.block_open if head.block_open is not None else -1
        fn.block_close = head.block_close if head.block_close is not None else -1

    # func attribution: lines inside a function body get its name.
    for fn in functions.values():
        if fn.block_open < 0 or fn.block_close < 0:
            continue
        for idx in range(fn.head, fn.block_close + 1):
            lines[idx].func = fn.name

    parsed = ParsedSource(lines=lines, functions=functions)
    for line in lines:
        for call in line.calls:
            parsed.call_sites.setdefault(call.name, []).append(line.index)
    return parsed
