"""What `import hyperspectra` loads, and the lazily loaded oracle names.

The import set is read in a fresh interpreter (`-S`, so no site hook adds
modules), since this test process has loaded every module already."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import hyperspectra
from hyperspectra import verify

ORACLES = ("hyperspectra.digraphs", "hyperspectra.means", "hyperspectra.verify")


def _run_fresh(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperspectra.__file__)))
    done = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_only_the_pipeline():
    seen = _run_fresh(
        f"""
        import contextlib, io, json, sys
        watched = ("dataclasses", "hyperspectra.cli") + {ORACLES!r}
        loaded = lambda names: [m for m in names if m in sys.modules]
        import hyperspectra
        after_import = loaded(watched)
        from hyperspectra import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["charpoly", "--graph", "complete:4", "--k", "3"])
        after_charpoly = loaded(watched)
        names = dir(hyperspectra)
        missing = [n for n in hyperspectra.__all__ if n not in names]
        unresolved = [n for n in hyperspectra.__all__ if not hasattr(hyperspectra, n)]
        print(json.dumps(dict(
            after_import=after_import, code=code, after_charpoly=after_charpoly,
            missing=missing, unresolved=unresolved,
            dataclasses="dataclasses" in sys.modules,
        )))
        """
    )
    assert seen["after_import"] == []
    assert seen["code"] == 0
    assert seen["after_charpoly"] == ["hyperspectra.cli"]
    assert seen["missing"] == [] and seen["unresolved"] == []
    # resolving every name loaded the oracles, and still not dataclasses
    assert seen["dataclasses"] is False


def test_oracle_commands_load_their_module():
    seen = _run_fresh(
        f"""
        import contextlib, io, json, sys
        from hyperspectra import cli
        out = {{}}
        for argv in (["matching", "--graph", "cycle:3"],
                     ["oracle", "--graph", "path:2", "--d", "3"],
                     ["verify", "--graph", "path:2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            out[argv[0]] = [code, [m for m in {ORACLES!r} if m in sys.modules]]
        print(json.dumps(out))
        """
    )
    # one process runs the three commands in turn, so the modules accumulate
    assert seen["matching"] == [0, ["hyperspectra.means"]]
    assert seen["oracle"] == [0, ["hyperspectra.digraphs", "hyperspectra.means"]]
    assert seen["verify"] == [0, list(ORACLES)]


def test_walk_modes_load_only_their_mean():
    seen = _run_fresh(
        f"""
        import contextlib, io, json, sys
        from hyperspectra import cli
        out = {{}}
        for mode in (["--method", "dp"], ["--method", "closed"], ["--covering"],
                     ["--method", "signed_mean"]):
            argv = ["walks", "--graph", "cycle:4", "--d", "4", *mode]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            out[" ".join(mode)] = [code, [m for m in {ORACLES!r} if m in sys.modules]]
        print(json.dumps(out))
        """
    )
    # the signed mean runs last, as the modules accumulate
    assert seen == {
        "--method dp": [0, []],
        "--method closed": [0, []],
        "--covering": [0, []],
        "--method signed_mean": [0, ["hyperspectra.means"]],
    }


def test_walks_binds_no_name_from_signed():
    from hyperspectra import signed, walks

    bound = [
        name
        for name, value in vars(walks).items()
        if value is signed or getattr(value, "__module__", None) == signed.__name__
    ]
    assert bound == []


def test_oracle_names_resolve_through_the_defining_module(monkeypatch):
    from hyperspectra import run_verify_suite

    assert run_verify_suite is verify.run_verify_suite
    assert hyperspectra.VerifyReport is verify.VerifyReport
    # looked up on every access: a wrapper on the module shows through
    monkeypatch.setattr(verify, "run_verify_suite", len)
    assert hyperspectra.run_verify_suite is len
    assert "run_verify_suite" not in vars(hyperspectra)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hyperspectra.nope
    assert not hasattr(hyperspectra, "nope")
