"""How ``compute`` reads its input files and finds its library functions.

An input is read as UTF-8, with ``\\r\\n`` and a lone ``\\r`` read as
``\\n``, also inside a quoted CSV field; a file that cannot be read is
``E_SCHEMA`` with a ``cannot read ...`` detail that names the file and the
operating system's or the decoder's reason. A library function is looked up
on its module at every call. (That threads which first use a metric module at
once wait for one import is ``test_cli.py``'s
``test_first_use_from_several_threads``.)
"""

import functools
import json

import pytest
from click.testing import CliRunner

from privmetrics import compute, uncertainty
from privmetrics.cli import main

from conftest import load_fixture, materialize_fixture


def _value(args):
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 0, r.output
    return json.loads(r.stdout)["value"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("metric_id", ["entropy", "k_anonymity", "l_diversity", "m_invariance"])
def test_other_line_endings_read_as_lf(metric_id, newline, tmp_path):
    """Every JSON and CSV file of the fixture, with its line ends rewritten,
    gives the value of its LF copy."""
    fixture = load_fixture(metric_id)
    args = materialize_fixture(fixture, tmp_path)
    expected = _value(args)
    for name, content in fixture["files"].items():
        text = content if isinstance(content, str) else json.dumps(content, indent=1)
        assert "\n" in text
        (tmp_path / name).write_bytes(text.replace("\n", newline).encode())
    assert _value(args) == expected


def test_crlf_inside_a_quoted_field_reads_as_lf(tmp_path):
    """The two sensitive values are one value once the field's CRLF reads as
    LF, so the class holds a single value and l is 1, not 2."""
    (tmp_path / "t.csv").write_bytes(b'zip,disease\r\n1,"a\r\nb"\r\n1,"a\nb"\r\n')
    (tmp_path / "s.json").write_text(json.dumps(
        {"roles": {"zip": "quasi-identifier", "disease": "sensitive"}}
    ))
    args = ["compute", "l_diversity", "--in", str(tmp_path / "t.csv"),
            "--schema", str(tmp_path / "s.json"), "--format", "json"]
    assert _value(args) == 1.0


def _unreadable(fault, path):
    """Make ``path`` unreadable by ``fault``; return the reason the detail gives."""
    if fault == "missing":
        return f"[Errno 2] No such file or directory: {str(path)!r}"
    if fault == "directory":
        path.mkdir()
        return f"[Errno 21] Is a directory: {str(path)!r}"
    path.write_bytes(b'{"labels": ["\xff"]}')
    return "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"


@pytest.mark.parametrize("fault", ["missing", "directory", "invalid-utf-8"])
@pytest.mark.parametrize("role", ["json-input", "csv-table", "schema-sidecar", "advise-answers"])
def test_an_unreadable_file_names_itself_and_the_reason(fault, role, tmp_path):
    fixture = load_fixture("entropy" if role == "json-input" else "k_anonymity")
    args = materialize_fixture(fixture, tmp_path)
    path = tmp_path / {"json-input": "d.json", "csv-table": "t.csv",
                       "schema-sidecar": "t.roles.json", "advise-answers": "answers.json"}[role]
    if role == "advise-answers":
        args = ["advise", "--answers", str(path), "--format", "json"]
    path.unlink(missing_ok=True)
    reason = _unreadable(fault, path)
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 2
    assert json.loads(r.stdout) == {"error": "E_SCHEMA", "detail": f"cannot read {path}: {reason}"}


def test_a_function_replaced_after_its_first_use_is_the_one_called(tmp_path, monkeypatch):
    args = materialize_fixture(load_fixture("entropy"), tmp_path)
    paths = [args[args.index("--in") + 1]]
    assert compute.compute("entropy", paths).value == 2.0
    calls = []

    @functools.wraps(uncertainty.shannon_entropy)
    def replacement(d):
        calls.append(d)
        return 1.5

    monkeypatch.setattr(uncertainty, "shannon_entropy", replacement)
    assert compute.compute("entropy", paths).value == 1.5
    assert len(calls) == 1

