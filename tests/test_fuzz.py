"""Fuzzed inputs: the parsers and loaders raise only ``SdgError`` subclasses.

Every exception other than an ``SdgError`` fails these tests, so a
malformed input can only end in a documented exit code, never in a
traceback.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgdyn import (
    PreconditionError,
    SdgError,
    SignedDigraph,
    check_nilpotency_certificate,
    classify_vertices,
    component_structure,
    construct_nilpotent,
    fds_from_dict,
    format_sdg,
    parse_sdg,
)
from sdgdyn.synthesis import certificate_from_dict

_text = st.sampled_from(["", "1", "fds.v1", "1,2"]) | st.text(max_size=3)
_scalars = st.none() | st.booleans() | st.integers() | st.sampled_from([0.5, 1e300]) | _text
# JSON values two levels deep (a recursive strategy costs several times more
# to draw, and deeper values reach no other code).
_json = (
    _scalars
    | st.lists(_scalars, max_size=3)
    | st.lists(st.lists(_scalars, max_size=3), max_size=3)
    | st.dictionaries(_text, _scalars, max_size=3)
)
_small = st.integers(-2, 4)


def _mostly(shaped, anything=_json):
    """``shaped`` half the time, else ``anything``: ``|`` would weigh each
    side by its number of alternatives, and so draw ``shaped`` seldom."""
    return st.booleans().flatmap(lambda shape: shaped if shape else anything)


# ---------------------------------------------------------------------------
# graph text
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "1", "x#y", "é"]) | st.text(min_size=1, max_size=3)
_lines = st.one_of(
    st.builds("vertex {}".format, _names),
    st.builds("arc {} {} {}".format, _names, _names, st.sampled_from(["+", "-", "+-", "0"])),
    st.sampled_from(["sdg v1", "", "  # note", "vertex", "arc a b", "sdg v2", "arc a b + c"]),
    st.text(max_size=12),
)
_QUERIES = ("in_plus", "in_minus", "in_neighbors", "out_neighbors", "in_degree", "out_degree")


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(_lines, max_size=12))
def test_parse_sdg_on_line_soups_raises_only_sdg_errors(header, lines):
    try:
        g = parse_sdg("\n".join(["sdg v1"] * header + lines))
    except SdgError:
        return
    absent = "absent" + "".join(g.vertices)  # longer than every vertex name
    for query in _QUERIES:
        for v in g.vertices:
            getattr(g, query)(v)
        with pytest.raises(PreconditionError, match="^unknown vertex "):
            getattr(g, query)(absent)
    classify_vertices(g)
    g.weak_components()
    if g.n:
        component_structure(g)
    assert parse_sdg(format_sdg(g)) == g


# ---------------------------------------------------------------------------
# system and certificate documents
# ---------------------------------------------------------------------------


def _redraw(draw, doc, fields):
    """``doc`` with up to two of its fields redrawn (from ``fields``, else as
    random JSON): most documents then reach the checks behind the first
    malformed field."""
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        doc[key] = draw(fields.get(key, _json))
    return doc


_ends = _small | st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1])


@st.composite
def _fds_documents(draw):
    """An ``fds v1`` document whose tables have the shape its intervals ask
    for, entries in range or not, with some fields redrawn."""
    intervals = [[lo, lo + draw(st.integers(-1, 2))] for lo in draw(st.lists(_ends, max_size=3))]
    size = math.prod(max(0, hi - lo + 1) for lo, hi in intervals)
    tables = [
        draw(st.lists(st.integers(lo, max(lo, hi)) | _ends | _scalars, min_size=size, max_size=size))
        for lo, hi in intervals
    ]
    return _redraw(draw, {"version": "fds.v1", "intervals": intervals, "tables": tables}, {})


@settings(max_examples=200, deadline=None)
@given(_mostly(_fds_documents()))
def test_fds_from_dict_on_random_json_raises_only_sdg_errors(doc):
    try:
        fds_from_dict(doc)
    except SdgError:
        pass


# Vertex 1 is a source, so the check reads the target at a source.
_GRAPH = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "2", "-")])
_SYSTEM, _CERTIFICATE = construct_nilpotent(_GRAPH)
_name = st.sampled_from(["1", "2", "x", ""])
_vertex = _name | _scalars | st.lists(_text, max_size=1)
_cert_fields = {
    "representatives": _mostly(
        st.lists(st.tuples(st.lists(_name, min_size=1, max_size=2), _vertex).map(list), max_size=2)
        | st.dictionaries(st.sampled_from(["1", "2", "1,2", ""]), _vertex, max_size=2)
    ),
    "layers": _mostly(st.lists(st.lists(_vertex, max_size=3), max_size=3)),
    "xi": _mostly(st.lists(_small, max_size=3)),
    "lambda": _mostly(_small | st.integers()),
    "beta": _mostly(_small | st.integers()),
}


@st.composite
def _cert_documents(draw):
    """The certificate of ``_SYSTEM`` with some fields redrawn."""
    return _redraw(draw, _CERTIFICATE.to_dict(), _cert_fields)


@settings(max_examples=200, deadline=None)
@given(_mostly(_cert_documents()))
def test_certificate_from_dict_on_random_json_raises_only_sdg_errors(doc):
    try:
        cert = certificate_from_dict(doc, _GRAPH)
        check_nilpotency_certificate(_GRAPH, _SYSTEM, cert)
    except SdgError:
        pass
