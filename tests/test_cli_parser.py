"""The argument parser is built once per process: reusing it changes no output."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from liecp.catalog import data_text
from liecp.cli import build_parser, main


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name in ("diamond.alg", "h5.alg", "morozov6_4.alg", "sl2_irr3.alg"):
        paths[name] = tmp_path / name
        paths[name].write_text(data_text(name))
    return {name: str(path) for name, path in paths.items()}


def _sequence(files):
    diamond, h5, morozov = files["diamond.alg"], files["h5.alg"], files["morozov6_4.alg"]
    sl2 = files["sl2_irr3.alg"]  # its sampled index is certified only with certification on
    return [
        ["index", sl2, "--certify", "on", "--json"],
        ["index", sl2, "--json"],
        ["index", sl2, "--certify", "off", "--json"],
        ["index", sl2],
        ["index", diamond, "--json"],
        ["center", h5],
        ["parabolic", "--type", "A", "--composition", "1,2,1", "--verify", "--certify", "on", "--json"],
        ["parabolic", "--type", "A", "--composition", "1,2,1", "--verify", "--json"],
        ["index", morozov, "--certify", "off", "--samples", "2", "--seed", "3", "--json"],
        ["index", morozov],
        ["cp-find", h5, "--json"],
        ["cp-find", h5],
        ["cp-find", diamond],
        ["catalog", "verify", "seeley_12457n", "--param", "xi=1", "--json"],
        ["catalog", "verify", "seeley_12457n", "--json"],
        ["certify-no-cp", diamond, "--kind", "form"],
        ["certify-no-cp", diamond, "--json"],
        ["index", files["diamond.alg"] + ".missing", "--json"],
        ["table1", "--type", "C", "--rank", "2"],
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_builds_the_parser_once():
    build_parser.cache_clear()
    _run(["catalog", "list"])
    _run(["catalog", "list", "--json"])
    assert build_parser.cache_info().misses == 1 and build_parser.cache_info().hits == 1


def test_reused_parser_prints_what_a_fresh_parser_prints(files):
    sequence = _sequence(files)
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(_run(argv))
    build_parser.cache_clear()
    reused = [_run(argv) for argv in sequence]
    assert reused == fresh
    assert {code for code, _, _ in fresh} == {0, 1, 2}
