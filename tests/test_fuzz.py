"""Fuzzing the input boundary: malformed documents and argument lists.

Every malformed input must end in exit code 2 with exactly one line on
stderr and no traceback; ``document_from_dict`` must refuse a malformed
value with ``DocumentError`` and nothing else.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from involutive.cli import main
from involutive.document import DocumentError, document_from_dict
from involutive.linalg import parse_rational

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Small integers only: a well-formed document with a huge r or n would
# be valid and expensive, and none is needed to reach the refusals.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.sampled_from(["1", "-1/2", "1/0", "x", "", "basis",
                       "coefficients"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10)

BASIS_DOC = {"r": 2, "n": 2, "presentation": "basis",
             "basis": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]}
COEFFICIENTS_DOC = {
    "r": 3, "n": 3, "presentation": "coefficients", "characters": [3, 1, 0],
    "coefficients": [{"a": 2, "lambda": 1, "i": 2, "b": 3, "value": "1"},
                     {"a": 3, "lambda": 1, "i": 3, "b": 3, "value": "1/2"}]}


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root first."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for idx, child in enumerate(value):
            yield from _paths(child, prefix + (idx,))


DROP = object()


def _mutate(value, path, new):
    """A copy of ``value`` with the item at ``path`` set to ``new``, or
    removed when ``new`` is ``DROP``."""
    if not path:
        return new
    copy = json.loads(json.dumps(value))
    holder = copy
    for key in path[:-1]:
        holder = holder[key]
    if new is DROP:
        del holder[path[-1]]
    else:
        holder[path[-1]] = new
    return copy


@st.composite
def mutated_documents(draw):
    """A valid document with one value replaced, or one key dropped."""
    doc = draw(st.sampled_from([BASIS_DOC, COEFFICIENTS_DOC]))
    paths = list(_paths(doc))
    path = draw(st.sampled_from([p for p in paths if len(p) <= 1])
                | st.sampled_from(paths))
    drop = bool(path) and isinstance(path[-1], str) and draw(st.booleans())
    return _mutate(doc, path, DROP if drop else draw(json_values))


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_refused(argv):
    code, _, err = _run(argv)
    assert code == 2, (argv, err)
    assert "Traceback" not in err
    assert err.endswith("\n") and len(err.splitlines()) == 1, (argv, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestDocumentFuzz:
    @SETTINGS
    @given(st.one_of(json_values, mutated_documents()))
    def test_malformed_values_refused_in_one_line(self, workdir, value):
        try:
            document_from_dict(value)
        except DocumentError:
            pass
        else:
            return  # the value happens to be a well-formed document
        path = workdir / "doc.json"
        path.write_text(json.dumps(value))
        _assert_refused(["analyze", "--input", str(path)])


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _bad_rational_list(text):
    parts = [p for p in text.split(",") if p.strip()]
    for part in parts:
        try:
            parse_rational(part)
        except ValueError:
            return True
    return not parts


# One defect per argument list, each caught before a command writes a
# file or starts a long computation.
junk = st.text(max_size=6)
word = st.text("abcxyz-_0123456789", min_size=1, max_size=6)


@st.composite
def malformed_argv(draw, doc):
    kind = draw(st.sampled_from([
        "command", "option", "int", "characters", "staircase", "set",
        "count", "input", "variant", "phi"]))
    if kind == "command":
        return [draw(junk.filter(lambda t: t not in (
            "characters", "analyze", "gnf", "ideal", "sample", "census")
            and not t.startswith("-")))]
    if kind == "option":
        cmd = draw(st.sampled_from(["ideal", "sample", "census", "analyze"]))
        base = (["analyze", "--input", doc] if cmd == "analyze"
                else [cmd, "3", "1", "0"])
        return base + ["--zz" + draw(junk)]
    if kind == "int":
        cmd, flag = draw(st.sampled_from([
            ("analyze", "--seed"), ("analyze", "--trials"),
            ("sample", "--seed"), ("sample", "--count"),
            ("census", "--cap")]))
        value = draw(junk.filter(_not_int))
        base = (["analyze", "--input", doc] if cmd == "analyze"
                else [cmd, "2", "1"])
        return base + [f"{flag}={value}"]
    if kind == "characters":
        cmd = draw(st.sampled_from(["ideal", "sample", "census"]))
        return [cmd, "2", draw(junk.filter(
            lambda t: _not_int(t) and not t.startswith("-")))]
    if kind == "staircase":
        low = draw(st.integers(0, 3))
        return [draw(st.sampled_from(["ideal", "sample", "census"])),
                str(low), str(low + draw(st.integers(1, 3)))]
    if kind == "set":
        value = draw(junk.filter(_bad_rational_list))
        return [draw(st.sampled_from(["sample", "census"])), "2", "1",
                f"--set={value}"]
    if kind == "count":
        return ["sample", "2", "1", f"--count=-{draw(st.integers(1, 99))}"]
    if kind == "input":
        cmd = draw(st.sampled_from(["characters", "analyze", "gnf"]))
        argv = [cmd, "--input", doc + ".missing" + draw(word)]
        return argv + ["--phi=1"] if cmd == "gnf" else argv
    if kind == "variant":
        value = draw(junk.filter(lambda t: t not in ("theorem", "proof")))
        return ["ideal", "3", "1", "0", f"--variant={value}"]
    value = draw(st.one_of(junk.filter(_bad_rational_list),
                           st.sampled_from(["0", "0,0", "0,0,0,0"])))
    return ["gnf", "--input", doc, f"--phi={value}"]


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def doc(self, workdir):
        path = workdir / "tableau.json"
        path.write_text(json.dumps(COEFFICIENTS_DOC))
        return str(path)

    @SETTINGS
    @given(data=st.data())
    def test_malformed_argv_refused_in_one_line(self, doc, data):
        _assert_refused(data.draw(malformed_argv(doc)))
