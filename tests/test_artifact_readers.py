"""Malformed artifacts: one typed error, one line, never a traceback or a pass.

Every row of :data:`MALFORMED` is an input that was tried against the
readers and did something else — an ``AttributeError`` / ``KeyError`` /
``JSONDecodeError`` / ``UnicodeDecodeError`` traceback, a bare
``ValueError`` that did not name the file, or (the ``NaN`` row) a silent
"no metric drifted". The contract (ROADMAP item 2c): a reader raises
:class:`~repro.observe.flight.ArtifactError` naming the file, the CLI prints
it on one line and exits 2; a sweep checkpoint may instead drop a torn tail
and re-execute it.
"""

import json
import pickle
import re

import pytest

from repro.cli import main
from repro.experiments.parallel import run_sweep
from repro.experiments.reporting import load_result
from repro.observe.flight import ArtifactError, read_flight
from tests.test_experiments_parallel import zipf_spec

_HEADER = b'{"type":"header","schema":1,"window":1.0,"top_docs":5,"caches":4}\n'
_NO_REQUESTS = _HEADER + b'{"type":"window","index":0,"start":0.0,"end":1.0,"updates":0}\n'
_NAN_ARCHIVE = json.dumps(
    {"schema_version": 1, "experiment": "x", "payload": {"a": float("nan"), "b": 1.0}}
).encode()


def _key_of(spec):
    """Module-level runner (stable qualname for the sweep signature)."""
    return spec.key


def _cli_rejects(path, data, capsys, argv, reader):
    """The reader raises the typed error; the CLI says it on one line, exit 2."""
    path.write_bytes(data)
    with pytest.raises(ArtifactError, match=re.escape(str(path))):
        reader(str(path))
    assert main([arg.format(path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro: {path}") and err.count("\n") == 1, err


def _compare_reports_drift(path, data, capsys, argv, reader):
    """``nan > tolerance`` is false: a non-finite value must still be drift."""
    path.write_bytes(data)
    assert main([arg.format(path) for arg in argv]) == 1
    out = capsys.readouterr().out
    assert "1 metrics drifted" in out and "a: nan -> nan" in out, out


def _checkpoint_rejected_or_reexecuted(path, mangle, capsys, argv, reader):
    """A bad record is a typed error naming the file, or a dropped tail."""
    specs = [zipf_spec(key=k) for k in ("a", "b", "c")]
    assert run_sweep(specs, jobs=1, runner=_key_of, checkpoint=path) == ["a", "b", "c"]
    path.write_bytes(mangle(path.read_bytes()))
    try:
        resumed = run_sweep(specs, jobs=1, runner=_key_of, checkpoint=path)
    except ArtifactError as exc:
        assert str(path) in str(exc)
    else:
        assert resumed == ["a", "b", "c"]


def _append_a_triple(raw):
    return raw + pickle.dumps((1, "b", "extra"))


def _corrupt_the_second_record(raw):
    # The key "b" as pickled (SHORT_BINUNICODE, length 1) with a byte that
    # is not UTF-8: ``pickle.load`` raises UnicodeDecodeError mid-file.
    assert raw.count(b"\x8c\x01b") == 1
    return raw.replace(b"\x8c\x01b", b"\x8c\x01\xff")


_RENDER = ["flight", "render", "{}"]
_COMPARE = ["compare", "{}", "{}"]

#: id -> (file bytes or checkpoint mangler, check, CLI argv, library reader)
MALFORMED = {
    "flight-line-is-not-an-object": (_HEADER + b"[1, 2]\n", _cli_rejects, _RENDER, read_flight),
    "flight-window-without-requests-render": (_NO_REQUESTS, _cli_rejects, _RENDER, read_flight),
    "flight-window-without-requests-diff": (
        _NO_REQUESTS, _cli_rejects, ["flight", "diff", "{}", "{}"], read_flight,
    ),
    "flight-header-window-is-not-a-number": (
        b'{"type":"header","window":"abc"}\n', _cli_rejects, _RENDER, read_flight,
    ),
    "archive-is-not-an-object": (b"[1]", _cli_rejects, _COMPARE, load_result),
    "archive-is-not-json": (b"{not json", _cli_rejects, _COMPARE, load_result),
    "archive-holds-a-nan": (_NAN_ARCHIVE, _compare_reports_drift, _COMPARE, load_result),
    "checkpoint-record-is-not-a-pair": (
        _append_a_triple, _checkpoint_rejected_or_reexecuted, None, None,
    ),
    "checkpoint-corrupt-bytes-mid-file": (
        _corrupt_the_second_record, _checkpoint_rejected_or_reexecuted, None, None,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact(case, tmp_path, capsys):
    data, check, argv, reader = MALFORMED[case]
    check(tmp_path / "artifact", data, capsys, argv, reader)


def test_torn_checkpoint_tail_is_cut_off_before_the_resumed_sweep_appends(tmp_path):
    """The re-executed record must follow the last complete one, not the
    torn fragment — or every later resume stops reading at the fragment."""
    path = tmp_path / "sweep.ckpt"
    specs = [zipf_spec(key=k) for k in ("a", "b", "c")]
    run_sweep(specs, jobs=1, runner=_key_of, checkpoint=path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-4])
    assert run_sweep(specs, jobs=1, runner=_key_of, checkpoint=path) == ["a", "b", "c"]
    assert path.read_bytes() == whole
