"""Line-oriented manifest files describing a manifold plus optional twist data.

The format is deliberately dumb: sections in brackets, one `key = value`
per line, integers only, repeated keys for matrix rows.  Polytopes come
either from a constructor expression (recursively combining the built-in
families) or as an explicit vertex list.  Example:

    [polytope]
    construct = connected_sum(simplex(2), {1 2}, simplex(2), {1 2})

    [characteristic]
    row = 1 0 1 1
    row = 0 1 1 -1

    [spinc]
    gamma = 1 1 1 1

    [bundles]
    v = 0 0 0 2
    w = 0 0 0 2

    [circle]
    xi = 1 2

Parsing never guesses: anything unexpected fails with the line number.
The constructors (with their size rules) and the keys of every section
are each declared once, in `_CONSTRUCTORS` and `_SECTIONS`.
Serialization is canonical, so parse -> serialize -> parse is the identity
on the parsed structure.
"""

import re
from collections import namedtuple

from .errors import InputError
from .genus import BundleSpec
from .polytope import (QuasitoricManifold, SimplePolytope, _integers,
                       connected_sum, cube, polygon, polytope_product, simplex,
                       vertex_cut)


class Manifest:
    """Parsed manifest: polytope recipe, characteristic data, twist data."""

    __slots__ = ("polytope_spec", "char_rows", "gamma", "v_lines", "w_lines",
                 "circle")

    def __init__(self, polytope_spec, char_rows, gamma, v_lines=(),
                 w_lines=(), circle=None):
        self.polytope_spec = polytope_spec
        self.char_rows = tuple(map(_integers, char_rows))
        self.gamma = _integers(gamma)
        self.v_lines = tuple(map(_integers, v_lines))
        self.w_lines = tuple(map(_integers, w_lines))
        self.circle = _integers(circle) if circle else None

    def __eq__(self, other):
        if not isinstance(other, Manifest):
            return NotImplemented
        return (self.polytope_spec == other.polytope_spec
                and self.char_rows == other.char_rows
                and self.gamma == other.gamma
                and self.v_lines == other.v_lines
                and self.w_lines == other.w_lines
                and self.circle == other.circle)

    def __repr__(self):
        return f"Manifest({serialize_expression(self.polytope_spec)}, m={len(self.gamma)})"

    def build_polytope(self):
        return _build_polytope(self.polytope_spec)

    def build_manifold(self):
        return QuasitoricManifold(self.build_polytope(), self.char_rows,
                                  self.gamma)

    def bundles(self):
        return BundleSpec(self.v_lines, self.w_lines)


_TOKEN = re.compile(r"\s*([a-z_]+|-?\d+|[(){},])")

# A constructor's argument kinds ("int", "expr" for a nested spec, or
# "vertices"), its builder, and its size rule: the (dimension, vertex
# count) of the result.  The builder gets each operand built, the size
# rule each operand's (dimension, vertex count).
_Constructor = namedtuple("_Constructor", "kinds build size")

_CONSTRUCTORS = {
    "simplex": _Constructor(("int",), simplex, lambda n: (n, n + 1)),
    # Arguments below 1 fail in the builder, with its own message; the cap
    # keeps cube(n) for a huge n from computing 2^n before it is refused.
    "cube": _Constructor(("int",), cube,
                         lambda n: (n, 2 ** min(max(n, 0), 64))),
    "polygon": _Constructor(("int",), polygon, lambda k: (2, k)),
    "product": _Constructor(("expr", "expr"), polytope_product,
                            lambda p, q: (p[0] + q[0], p[1] * q[1])),
    "vertex_cut": _Constructor(("expr", "vertices"), vertex_cut,
                               lambda p, vertex: (p[0], p[1] + p[0] - 1)),
    "connected_sum": _Constructor(
        ("expr", "vertices", "expr", "vertices"), connected_sum,
        lambda p, vp, q, vq: (p[0], p[1] + q[1] - 2)),
}


def _tokenize_expression(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"bad constructor syntax near {text[pos:pos+12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


MAX_NESTING = 64     # constructor calls inside one another, outermost included


class _ExpressionParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise InputError("constructor expression ended early")
        if expected is not None and tok != expected:
            raise InputError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise InputError(f"trailing tokens after expression: {self.peek()!r}")
        return out

    def expr(self, depth=1):
        if depth > MAX_NESTING:
            raise InputError(
                f"constructor expression nests deeper than {MAX_NESTING} levels")
        name = self.take()
        if name not in _CONSTRUCTORS:
            raise InputError(f"unknown polytope constructor {name!r}")
        self.take("(")
        args = []
        for i, kind in enumerate(_CONSTRUCTORS[name].kinds):
            if i:
                self.take(",")
            if kind == "int":
                args.append(self.integer())
            elif kind == "expr":
                args.append(self.expr(depth + 1))
            else:
                args.append(self.vertices())
        self.take(")")
        return (name, *args)

    def integer(self):
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise InputError(f"expected an integer, found {tok!r}") from None

    def vertices(self):
        self.take("{")
        out = []
        while self.peek() != "}":
            out.append(self.integer())
        self.take("}")
        if not out:
            raise InputError("empty vertex literal {}")
        return tuple(out)


def parse_expression(text):
    """Parse a polytope constructor expression into its tuple form."""
    return _ExpressionParser(_tokenize_expression(text)).parse()


def _row(values):
    return " ".join(str(x) for x in values)


def serialize_expression(spec):
    if spec[0] == "explicit":
        return "<explicit>"
    entry, args = _apply(spec, serialize_expression)
    parts = ["{" + _row(arg) + "}" if kind == "vertices" else str(arg)
             for kind, arg in zip(entry.kinds, args)]
    return f"{spec[0]}({', '.join(parts)})"


def _apply(spec, operand):
    """The table entry of spec's constructor, and spec's arguments with each
    nested spec replaced by operand(spec)."""
    if spec[0] not in _CONSTRUCTORS:
        raise InputError(f"unknown polytope spec {spec[0]!r}")
    entry = _CONSTRUCTORS[spec[0]]
    return entry, [operand(arg) if kind == "expr" else arg
                   for kind, arg in zip(entry.kinds, spec[1:])]


def _build_polytope(spec):
    if spec[0] == "explicit":
        _, dimension, num_facets, vertices = spec
        polytope = SimplePolytope(dimension, num_facets, vertices)
        h = polytope.h_vector()
        if min(h) < 0 or h != h[::-1]:
            raise InputError(f"h-vector {h} is not nonnegative and symmetric; "
                             "the vertex complex is not a sphere")
        return polytope
    entry, args = _apply(spec, _build_polytope)
    return entry.build(*args)


# Largest polytope a manifest may describe, checked on the parsed spec
# before anything is built (docs/manifest_format.md).
MAX_DIMENSION = 12
MAX_VERTICES = 24


def _checked_size(spec):
    """(dimension, vertex count) of the polytope spec describes, read from
    the spec alone; InputError as soon as either passes its limit."""
    if spec[0] == "explicit":
        dimension, vertices = spec[1], len(spec[3])
    else:
        entry, args = _apply(spec, _checked_size)
        dimension, vertices = entry.size(*args)
    if dimension > MAX_DIMENSION:
        raise InputError(f"{serialize_expression(spec)} has dimension "
                         f"{dimension}, over the limit {MAX_DIMENSION}")
    if vertices > MAX_VERTICES:
        raise InputError(f"{serialize_expression(spec)} has {vertices} "
                         f"vertices, over the limit {MAX_VERTICES}")
    return dimension, vertices


# Each section's keys, in the order serialize_manifest writes them: key ->
# (the Manifest attribute it fills, whether it may repeat).  A key that may
# not repeat appears at most once, and a repeating one gives a list.  Every
# key of a section not in _OPTIONAL must appear, except in [polytope], which
# holds construct alone or the explicit listing: dimension and facets, one
# integer each, and one vertex per line.
_SECTIONS = {
    "polytope": {"construct": ("polytope_spec", False),
                 "dimension": ("polytope_spec", False),
                 "facets": ("polytope_spec", False),
                 "vertex": ("polytope_spec", True)},
    "characteristic": {"row": ("char_rows", True)},
    "spinc": {"gamma": ("gamma", False)},
    "bundles": {"v": ("v_lines", True), "w": ("w_lines", True)},
    "circle": {"xi": ("circle", False)},
}
_OPTIONAL = ("bundles", "circle")


def _ints(value, where, one=False):
    """The integers of value, at least one, and exactly one if one is set."""
    out = []
    for piece in value.split():
        try:
            out.append(int(piece))
        except ValueError:
            raise InputError(f"{where}: expected integers, found {piece!r}") from None
    if not out:
        raise InputError(f"{where}: empty integer list")
    if one and len(out) != 1:
        raise InputError(f"{where}: expected one integer, found {len(out)}")
    return out


def parse_manifest(text):
    """Parse manifest text into a Manifest, with line-located diagnostics."""
    section = None
    entries = {name: [] for name in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        where = f"line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise InputError(f"{where}: unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise InputError(f"{where}: content before any section header")
        if "=" not in line:
            raise InputError(f"{where}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise InputError(f"{where}: empty value for {key!r}")
        if key not in _SECTIONS[section]:
            raise InputError(f"{where}: [{section}] takes the keys "
                             f"{', '.join(_SECTIONS[section])}, not {key!r}")
        entries[section].append((key, value, where))

    fields = {"polytope_spec": _polytope_spec(entries["polytope"])}
    for name in list(_SECTIONS)[1:]:
        for key, attribute, repeats, found in _keyed(name, entries[name]):
            if not found and name not in _OPTIONAL:
                raise InputError(f"missing [{name}] {key} entry")
            rows = [_ints(v, w) for v, w in found]
            fields[attribute] = rows if repeats else rows[0] if rows else None
    return Manifest(**fields)


def _keyed(name, entries):
    """(key, attribute, repeats, [(value, where), ...]) for each key of
    [name], in table order; InputError at the second line of a key that
    may not repeat."""
    for key, (attribute, repeats) in _SECTIONS[name].items():
        found = [(v, w) for k, v, w in entries if k == key]
        if len(found) > 1 and not repeats:
            raise InputError(f"{found[1][1]}: duplicate {key}")
        yield key, attribute, repeats, found


def _polytope_spec(entries):
    if not entries:
        raise InputError("missing [polytope] section")
    if any(key == "construct" for key, _, _ in entries):
        if len(entries) != 1:
            raise InputError(
                f"{entries[1][2]}: constructor polytopes take no other keys")
        _, value, where = entries[0]
        try:
            spec = parse_expression(value)
            _checked_size(spec)
        except InputError as e:
            raise InputError(f"{where}: {e}") from None
        return spec
    # the keys after construct: dimension, facets and vertex, each value
    # with its line
    dimension, facets, vertices = [
        [(_vertex(v, w) if repeats else _ints(v, w, one=True)[0], w)
         for v, w in found]
        for _, _, repeats, found in list(_keyed("polytope", entries))[1:]]
    if not (dimension and facets and vertices):
        raise InputError(
            "explicit polytopes need dimension, facets and vertex entries")
    # each vertex is stored sorted, so {1 2} and {2 1} are one vertex
    first = {}
    for vertex, where in vertices:
        if first.setdefault(vertex, where) != where:
            raise InputError(f"{where}: vertex {{{_row(vertex)}}} is listed "
                             f"again (first at {first[vertex]})")
    spec = ("explicit", dimension[0][0], facets[0][0], tuple(sorted(first)))
    _checked_size(spec)
    return spec


def _vertex(value, where):
    if not (value.startswith("{") and value.endswith("}")):
        raise InputError(f"{where}: vertex values look like {{1 2 3}}")
    return tuple(sorted(_ints(value[1:-1], where)))


def _texts(manifest, name):
    """One list of value texts per key of [name], in table order."""
    if name == "polytope":
        spec = manifest.polytope_spec
        if spec[0] == "explicit":
            return [[], [str(spec[1])], [str(spec[2])],
                    ["{" + _row(v) + "}" for v in spec[3]]]
        return [[serialize_expression(spec)], [], [], []]
    out = []
    for attribute, repeats in _SECTIONS[name].values():
        value = getattr(manifest, attribute)
        rows = value if repeats else [value] if value else []
        out.append([_row(row) for row in rows])
    return out


def serialize_manifest(manifest):
    """Canonical manifest text: sections and keys in table order, one line
    per value, a section without values left out."""
    blocks = []
    for name, keys in _SECTIONS.items():
        lines = [f"{key} = {text}"
                 for key, texts in zip(keys, _texts(manifest, name))
                 for text in texts]
        if lines:
            blocks.append("\n".join([f"[{name}]", *lines]))
    return "\n\n".join(blocks) + "\n"
