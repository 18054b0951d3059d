"""``--format machine`` output: the writer against ``json.dumps``.

``cli._dumps`` must write the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)``, which stays here as the oracle only: on recursive documents of
None, bools, big ints and text (with the characters that delimit JSON, and
non-ASCII ones) and of lists of rows (empty and mixed rows included), on
lists whose first item misleads the writer's guess of a row, and on the
document of every text-snapshot case.
"""

import contextlib
import enum
import io
import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cuspidal import cli
from test_cli_text import CASES, argv_of


def oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


# the characters that delimit JSON, escapes, and non-ASCII up to the astral planes
texts = st.text(st.sampled_from(',"[]{}:\\ \n\tax\x7fé€\U0001f600'), max_size=5)
scalars = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.integers()
           | texts)


def containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(texts, children, max_size=5))


# lists of rows as the commands write them (ints, bools and None), with empty
# rows and rows holding text or a list mixed in
numbers = st.none() | st.booleans() | st.integers(-10**30, 10**30)
rows = (st.lists(numbers, min_size=1, max_size=4)
        | st.lists(numbers, min_size=1, max_size=4).map(tuple)
        | st.lists(numbers | texts | st.lists(numbers, max_size=2), max_size=4))
tables = st.lists(rows, min_size=1, max_size=5)

documents = st.recursive(scalars | tables, containers, max_leaves=20)


@given(documents)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], [1, [2, True]], [None, "x,y"]]})
@example([[1, 2], [3, 4]])
@example({"terms": [[0, -1, 2], (3, True, None)]})
@example([[1, 2], []])
@example([[1, "x,]"], [2]])
@example([[[1]], [2]])
@example({"é,\"[{": ["ü", 10**40, -1, False]})
# lists whose first item misleads the writer's guess of a row or a list of rows
@example([1, [2]])
@example([1, "a[b"])
@example([None, {"a": 1}])
@example([[1], None])
@example([[[0], None]])
@example([[1], None, [[2]]])
@example([[1, 2], [3, [4]]])
@example([[1], []])
@example([(True, 2), [None]])
@example([[1], "x"])
@example({"a": {"b": {"c": [[1, 2], (3, None)]}}})
@example([1, {}])
@example([[1, {}], [2]])
def test_writer_equals_json_dumps(doc):
    assert cli._dumps(doc) == oracle(doc)


def test_one_encoder_call_per_row_and_per_list_of_rows(monkeypatch):
    # a row of ints, bools and None, and a list of such rows, is written by
    # one call to the C encoder and walked no further; a scalar needs none
    encoded, walked = [], []
    encode, dumps = cli._encode, cli._dumps

    def counted_encode(value, *separator):
        encoded.append(value)
        return encode(value, *separator)

    def counted_dumps(value, *indent):
        walked.append(value)
        return dumps(value, *indent)

    monkeypatch.setattr(cli, "_encode", counted_encode)
    monkeypatch.setattr(cli, "_dumps", counted_dumps)
    doc = {"row": list(range(-50, 50)), "flags": [True, None, 3],
           "terms": [[0, 1, 2], (3, False, None)], "n": 7, "s": "x"}
    assert cli._dumps(doc) == oracle(doc)
    assert encoded == [doc["flags"], doc["row"], doc["terms"]]
    assert walked == [doc, *(doc[key] for key in sorted(doc))]


@pytest.mark.parametrize("doc", [{"a": object()}, [1, {2}]])
def test_unencodable_value_refused_as_json_dumps_refuses_it(doc):
    with pytest.raises(TypeError) as expected:
        oracle(doc)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        cli._dumps(doc)


class Level(enum.IntEnum):
    LOW = -2
    HIGH = 10**20


@pytest.mark.parametrize("doc", [Level.HIGH, [Level.LOW, Level.HIGH], [1, Level.LOW, None],
                                 {"level": Level.LOW, "rows": [[Level.HIGH, 2]]}])
def test_int_enum_written_as_json_dumps_writes_it(doc):
    assert cli._dumps(doc) == oracle(doc)


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_on_snapshot_documents(case):
    argv = argv_of(case) + ["--format", "machine"]
    args = cli.build_parser().parse_args(argv)
    *_, compute, _ = cli._COMMANDS[args.subcommand]
    fields, _ = compute(args)
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": args.subcommand, **fields}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(argv)
    assert out.getvalue() == cli._dumps(doc) + "\n" == oracle(doc) + "\n"
