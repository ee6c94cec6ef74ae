"""Hostile JSON through the CLI: every run must end with exit code 0 or 1
(or argparse's SystemExit(2)); any other exception is a defect."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricglsm.cli import main

_FAN = {"name": "P2", "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [0, 2], [1, 2]]}
_COLLECTION = {
    "fan": "P2",
    "degrees": [1, 1, 1],
    "sections": ["z0", "z1", "-z0 - z1"],
    "trivializations": ["1", "-2/3"],
}
_STABLE_MAP = {
    "main": _COLLECTION,
    "attachments": [{"point": ["1", "0"], "degree": [1, 1, 1]}, {"point": ["0", "1"], "degree": [2, 2, 2]}],
}
_GLSM = {"charges": [[1, 1, 1, 0], [0, 0, 1, 1]], "fi": ["1", "1/2"], "amplitudes": ["1", "1", "1", "1"]}
DOCUMENTS = {
    "fan-check": _FAN,
    "cox": _FAN,
    "delta-check": _COLLECTION,
    "collapse": _STABLE_MAP,
    "glsm-solve": _GLSM,
    "glsm-phase": _GLSM,
}

SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["", "1", "-1/2", "z0", "P2", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(sorted(
        {k for doc in DOCUMENTS.values() for k in doc} | {"main", "point", "degree"})), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _run(cmd, doc, path):
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([cmd, str(path)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (cmd, doc)


def _mutate(data, doc):
    """Replace or delete one field, at any depth, of a deep copy of doc."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            del node[key]
            return doc
        else:
            node[key] = data.draw(SMALL_JSON)
            return doc


@settings(max_examples=100, deadline=None)
@given(cmd=st.sampled_from(sorted(DOCUMENTS)), doc=SMALL_JSON)
def test_cli_survives_any_small_json(doc_path, cmd, doc):
    _run(cmd, doc, doc_path)


@settings(max_examples=150, deadline=None)
@given(cmd=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_cli_survives_field_mutations(doc_path, cmd, data):
    _run(cmd, _mutate(data, DOCUMENTS[cmd]), doc_path)


def test_unmutated_documents_succeed(doc_path):
    for cmd, doc in DOCUMENTS.items():
        path = doc_path.with_name(cmd + ".json")
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, str(path)]) == 0, cmd


def test_unwritable_output_is_one_error_line(doc_path):
    out = doc_path.with_name("missing") / "out.json"
    runs = [["moduli-dim", "P2", "--degree", "1,1,1", "--sample"]]
    for cmd, doc in DOCUMENTS.items():
        path = doc_path.with_name(cmd + ".json")
        path.write_text(json.dumps(doc))
        runs.append([cmd, str(path)])
    for argv in runs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["-o", str(out)])
        assert code == 1 and stdout.getvalue() == "", argv
        assert stderr.getvalue() == f"error: {out}: No such file or directory\n", argv
