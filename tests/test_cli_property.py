"""Property test of the CLI's exit-code contract.

Random (and randomly damaged) graph documents meet random flag sets for
all eight variants.  Whatever the input, ``cli.run`` must return 0 or 1
with exactly one JSON object on stdout whose ``feasible`` matches the
code, or 2 (usage error) or 3 (input error) with nothing on stdout.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import gen_random_cactus
from cactus_partition.cli import run

# the flags each variant needs; the others are usage errors for it
REQUIRED = {
    "decide": ("-l", "-u", "-p"),
    "solve": ("-l", "-u", "-p"),
    "min": ("-l", "-u"),
    "max": ("-l", "-u"),
    "min-cost": ("-l", "-u"),
    "minmax": ("-l", "-u", "-p"),
    "maxmin": ("-l", "-u", "-p"),
    "capacity": ("--lw", "--uw", "--uc"),
}
BAD_VALUES = ("1", 1.5, None, True, -1, [], {"x": 1})


def _entries(doc, key):
    value = doc.get(key)
    return value if isinstance(value, list) and value else None


def _wrong_value(draw, doc):
    key, fields = draw(st.sampled_from(
        (("vertices", ("id", "weight", "size")), ("edges", ("u", "v", "cost", "capacity")))
    ))
    entries = _entries(doc, key)
    if entries:
        entry = draw(st.sampled_from(entries))
        if isinstance(entry, dict):
            entry[draw(st.sampled_from(fields))] = draw(st.sampled_from(BAD_VALUES))


def _add_edge(draw, doc):
    vertices, edges = _entries(doc, "vertices"), doc.get("edges")
    if not vertices or not isinstance(edges, list):
        return
    ids = [v.get("id") for v in vertices if isinstance(v, dict)] or ["v00"]
    u = draw(st.sampled_from(ids))
    kind = draw(st.sampled_from(("unknown", "self-loop", "extra", "duplicate")))
    if kind == "duplicate" and edges:
        edges.append(dict(draw(st.sampled_from(edges))))
    elif kind == "unknown":
        edges.append({"u": u, "v": "nowhere"})
    elif kind == "self-loop":
        edges.append({"u": u, "v": u})
    else:
        edges.append({"u": u, "v": draw(st.sampled_from(ids))})


def _not_a_list(draw, doc):
    doc[draw(st.sampled_from(("vertices", "edges")))] = draw(
        st.sampled_from(({"v00": 1}, "v00", 3, None))
    )


@st.composite
def documents(draw):
    doc = gen_random_cactus(
        draw(st.integers(1, 9)),
        cycle_density=draw(st.sampled_from((0.0, 0.4, 0.9))),
        weight_range=(0, 5),
        seed=draw(st.integers(0, 2**16)),
        size_range=(0, 4),
        cost_range=(0, 5),
        capacity_range=(0, 4),
    )
    for mutate in draw(st.lists(st.sampled_from((_wrong_value, _add_edge, _not_a_list)), max_size=2)):
        mutate(draw, doc)
    return doc


@st.composite
def flag_lists(draw):
    variant = draw(st.sampled_from(sorted(REQUIRED)))
    argv = ["--variant", variant]
    for flag in ("-l", "-u", "-p", "--lw", "--uw", "--uc"):
        # mostly the variant's own flags, so that most requests get solved
        wanted = draw(st.integers(0, 19)) > (0 if flag in REQUIRED[variant] else 18)
        if wanted:
            argv += [flag, str(draw(st.integers(-1, 14)))]
    if draw(st.integers(0, 2)) == 0:
        argv += ["--algorithm", draw(st.sampled_from(("tupleset", "interval")))]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--objective", draw(st.sampled_from(("min", "max")))]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--root", draw(st.sampled_from(("v00", "v01", "v08", "nowhere")))]
    for flag in ("--oracle", "--dump-tree"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "graph.json"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(doc=documents(), flags=flag_lists())
def test_every_request_gets_a_documented_exit_code(graph_path, doc, flags):
    graph_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["solve", *flags, str(graph_path)])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    text = out.getvalue()
    if code in (2, 3):
        assert text == "", (code, text)
        return
    assert text.endswith("\n") and text.count("\n") == 1, text
    result = json.loads(text)
    assert isinstance(result, dict)
    assert result["feasible"] is (code == 0)
