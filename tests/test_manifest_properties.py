"""Property tests of the polytope constructor table over random constructor
words, run when hypothesis is installed (the ``test`` extra)."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from quasigenus.errors import InputError
from quasigenus.manifest import (_CONSTRUCTORS, _build_polytope, _checked_size,
                                 parse_expression, parse_manifest,
                                 serialize_expression)
from quasigenus.polytope import SimplePolytope

# Integer arguments for which every constructor taking one builds a polytope
# of dimension at least 2, where every vertex cut and connected sum is valid.
INTEGERS = range(3, 6)
LEAVES = [name for name, entry in _CONSTRUCTORS.items()
          if entry.kinds == ("int",)]


@st.composite
def specs(draw, depth=3):
    """A spec at most depth constructor calls deep.  A vertex is drawn from
    the built operand before it, and the second operand of a connected sum
    is the first or a leaf of the same dimension."""
    name = draw(st.sampled_from(list(_CONSTRUCTORS) if depth > 1 else LEAVES))
    args, operand = [], None
    for kind in _CONSTRUCTORS[name].kinds:
        if kind == "int":
            args.append(draw(st.sampled_from(INTEGERS)))
        elif kind == "vertices":
            args.append(draw(st.sampled_from(operand.vertices)))
        else:
            if operand is None:
                args.append(draw(specs(depth - 1)))
            else:
                args.append(draw(st.sampled_from([args[0]] + [
                    (leaf, n) for leaf in LEAVES for n in INTEGERS
                    if _CONSTRUCTORS[leaf].size(n)[0] == operand.dimension])))
            if "vertices" in _CONSTRUCTORS[name].kinds:
                operand = _build_polytope(args[-1])
    return (name, *args)


def _refuse_to_build(*args):
    raise AssertionError("a polytope over the limits was built")


@seed(26)
@settings(max_examples=300, deadline=None, database=None)
@given(specs())
def test_constructor_words(spec):
    text = serialize_expression(spec)
    assert parse_expression(text) == spec
    try:
        size = _checked_size(spec)
    except InputError:
        # over a limit: the manifest is refused before anything is built
        manifest = (f"[polytope]\nconstruct = {text}\n[characteristic]\n"
                    "row = 1\n[spinc]\ngamma = 1\n")
        with mock.patch.object(SimplePolytope, "__init__", _refuse_to_build):
            with pytest.raises(InputError, match="over the limit"):
                parse_manifest(manifest)
        return
    polytope = _build_polytope(spec)
    assert size == (polytope.dimension, len(polytope.vertices))
