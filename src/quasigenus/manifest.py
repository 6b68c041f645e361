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
Serialization is canonical, so parse -> serialize -> parse is the identity
on the parsed structure.
"""

import re

from .errors import InputError
from .genus import BundleSpec
from .polytope import (SimplePolytope, connected_sum, cube, polygon,
                       polytope_product, simplex, vertex_cut)


class Manifest:
    """Parsed manifest: polytope recipe, characteristic data, twist data."""

    __slots__ = ("polytope_spec", "char_rows", "gamma", "v_lines", "w_lines",
                 "circle")

    def __init__(self, polytope_spec, char_rows, gamma, v_lines=(),
                 w_lines=(), circle=None):
        self.polytope_spec = polytope_spec
        self.char_rows = tuple(tuple(int(x) for x in row) for row in char_rows)
        self.gamma = tuple(int(x) for x in gamma)
        self.v_lines = tuple(tuple(int(x) for x in row) for row in v_lines)
        self.w_lines = tuple(tuple(int(x) for x in row) for row in w_lines)
        self.circle = tuple(int(x) for x in circle) if circle else None

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
        from .polytope import QuasitoricManifold
        return QuasitoricManifold(self.build_polytope(), self.char_rows,
                                  self.gamma)

    def bundles(self):
        return BundleSpec(self.v_lines, self.w_lines)


_TOKEN = re.compile(r"\s*([a-z_]+|-?\d+|[(){},])")

_CONSTRUCTORS = {
    "simplex": ("int",),
    "cube": ("int",),
    "polygon": ("int",),
    "product": ("expr", "expr"),
    "vertex_cut": ("expr", "vertices"),
    "connected_sum": ("expr", "vertices", "expr", "vertices"),
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
        for i, kind in enumerate(_CONSTRUCTORS[name]):
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


def serialize_expression(spec):
    if spec[0] == "explicit":
        return "<explicit>"
    name = spec[0]
    parts = []
    for kind, arg in zip(_CONSTRUCTORS[name], spec[1:]):
        if kind == "int":
            parts.append(str(arg))
        elif kind == "expr":
            parts.append(serialize_expression(arg))
        else:
            parts.append("{" + " ".join(str(v) for v in arg) + "}")
    return f"{name}({', '.join(parts)})"


def _build_polytope(spec):
    kind = spec[0]
    if kind == "explicit":
        _, dimension, num_facets, vertices = spec
        return SimplePolytope(dimension, num_facets, vertices)
    if kind == "simplex":
        return simplex(spec[1])
    if kind == "cube":
        return cube(spec[1])
    if kind == "polygon":
        return polygon(spec[1])
    if kind == "product":
        return polytope_product(_build_polytope(spec[1]), _build_polytope(spec[2]))
    if kind == "vertex_cut":
        return vertex_cut(_build_polytope(spec[1]), spec[2])
    if kind == "connected_sum":
        return connected_sum(_build_polytope(spec[1]), spec[2],
                             _build_polytope(spec[3]), spec[4])
    raise InputError(f"unknown polytope spec {kind!r}")


# Largest polytope a manifest may describe, checked on the parsed spec
# before anything is built (docs/manifest_format.md).
MAX_DIMENSION = 12
MAX_VERTICES = 24


def _checked_size(spec):
    """(dimension, vertex count) of the polytope spec describes, read from
    the spec alone; InputError as soon as either passes its limit."""
    kind = spec[0]
    if kind == "product":
        (d1, v1), (d2, v2) = _checked_size(spec[1]), _checked_size(spec[2])
        dimension, vertices = d1 + d2, v1 * v2
    elif kind == "vertex_cut":
        dimension, v = _checked_size(spec[1])
        vertices = v + dimension - 1
    elif kind == "connected_sum":
        dimension, v1 = _checked_size(spec[1])
        vertices = v1 + _checked_size(spec[3])[1] - 2
    elif kind == "explicit":
        dimension, vertices = spec[1], len(spec[3])
    else:
        # simplex(n), cube(n) or polygon(n).  Arguments below 1 fail later,
        # in the constructor, with its own message; the cap keeps cube(n)
        # for a huge n from computing 2^n before it is refused.
        n = spec[1]
        dimension = 2 if kind == "polygon" else n
        vertices = {"simplex": n + 1, "cube": 2 ** min(max(n, 0), 64),
                    "polygon": n}[kind]
    if dimension > MAX_DIMENSION:
        raise InputError(f"{serialize_expression(spec)} has dimension "
                         f"{dimension}, over the limit {MAX_DIMENSION}")
    if vertices > MAX_VERTICES:
        raise InputError(f"{serialize_expression(spec)} has {vertices} "
                         f"vertices, over the limit {MAX_VERTICES}")
    return dimension, vertices


_SECTIONS = ("polytope", "characteristic", "spinc", "bundles", "circle")


def _ints(value, where):
    out = []
    for piece in value.split():
        try:
            out.append(int(piece))
        except ValueError:
            raise InputError(f"{where}: expected integers, found {piece!r}") from None
    if not out:
        raise InputError(f"{where}: empty integer list")
    return out


def parse_manifest(text):
    """Parse manifest text into a Manifest, with line-located diagnostics."""
    section = None
    data = {name: [] for name in _SECTIONS}
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
        data[section].append((key, value, where))

    polytope_spec = _parse_polytope_section(data["polytope"])
    char_rows = [_ints(v, w) for k, v, w in data["characteristic"]
                 if _expect_key(k, "row", w)]
    if not char_rows:
        raise InputError("missing [characteristic] row entries")
    gamma = None
    for k, v, w in data["spinc"]:
        _expect_key(k, "gamma", w)
        if gamma is not None:
            raise InputError(f"{w}: duplicate gamma")
        gamma = _ints(v, w)
    if gamma is None:
        raise InputError("missing [spinc] gamma entry")
    v_lines, w_lines = [], []
    for k, v, w in data["bundles"]:
        if k == "v":
            v_lines.append(_ints(v, w))
        elif k == "w":
            w_lines.append(_ints(v, w))
        else:
            raise InputError(f"{w}: bundle lines are keyed v or w, not {k!r}")
    circle = None
    for k, v, w in data["circle"]:
        _expect_key(k, "xi", w)
        if circle is not None:
            raise InputError(f"{w}: duplicate xi")
        circle = _ints(v, w)
    return Manifest(polytope_spec, char_rows, gamma, v_lines, w_lines, circle)


def _expect_key(key, expected, where):
    if key != expected:
        raise InputError(f"{where}: expected key {expected!r}, found {key!r}")
    return True


def _parse_polytope_section(entries):
    if not entries:
        raise InputError("missing [polytope] section")
    keys = {k for k, _, _ in entries}
    if "construct" in keys:
        if len(entries) != 1:
            raise InputError("constructor polytopes take no other keys")
        _, value, where = entries[0]
        try:
            spec = parse_expression(value)
            _checked_size(spec)
        except InputError as e:
            raise InputError(f"{where}: {e}") from None
        return spec
    dimension = None
    num_facets = None
    vertices = []
    for k, v, w in entries:
        if k == "dimension":
            dimension = _ints(v, w)[0]
        elif k == "facets":
            num_facets = _ints(v, w)[0]
        elif k == "vertex":
            body = v.strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise InputError(f"{w}: vertex values look like {{1 2 3}}")
            vertices.append(tuple(_ints(body[1:-1], w)))
        else:
            raise InputError(f"{w}: unknown polytope key {k!r}")
    if dimension is None or num_facets is None or not vertices:
        raise InputError(
            "explicit polytopes need dimension, facets and vertex entries")
    spec = ("explicit", dimension, num_facets, tuple(sorted(vertices)))
    _checked_size(spec)
    return spec


def serialize_manifest(manifest):
    lines = ["[polytope]"]
    spec = manifest.polytope_spec
    if spec[0] == "explicit":
        lines.append(f"dimension = {spec[1]}")
        lines.append(f"facets = {spec[2]}")
        for v in spec[3]:
            lines.append("vertex = {" + " ".join(str(x) for x in v) + "}")
    else:
        lines.append(f"construct = {serialize_expression(spec)}")
    lines.append("")
    lines.append("[characteristic]")
    for row in manifest.char_rows:
        lines.append("row = " + " ".join(str(x) for x in row))
    lines.append("")
    lines.append("[spinc]")
    lines.append("gamma = " + " ".join(str(x) for x in manifest.gamma))
    if manifest.v_lines or manifest.w_lines:
        lines.append("")
        lines.append("[bundles]")
        for line in manifest.v_lines:
            lines.append("v = " + " ".join(str(x) for x in line))
        for line in manifest.w_lines:
            lines.append("w = " + " ".join(str(x) for x in line))
    if manifest.circle:
        lines.append("")
        lines.append("[circle]")
        lines.append("xi = " + " ".join(str(x) for x in manifest.circle))
    return "\n".join(lines) + "\n"
