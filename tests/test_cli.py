import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from acokit.cli import EXIT_BAD_INPUT, EXIT_FAIL, EXIT_OK, main, trace_csv
from acokit.iteration import Trajectory

from conftest import BAD_MAP_INPUTS, corpus_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_routing_solve_ring3_sync(capsys):
    code, out, _ = run_cli(capsys, "routing", "solve",
                           corpus_path("ring3.json"), "--mode", "sync")
    assert code == EXIT_OK
    assert "fixed point: {(1 d),(2 d),eps}" in out
    assert "status: converged" in out


def test_routing_check_disagree_prints_cycle(capsys):
    code, out, _ = run_cli(capsys, "routing", "check",
                           corpus_path("disagree.json"))
    assert code == EXIT_FAIL
    assert "REJECTED" in out
    assert "cycle:" in out


def test_routing_check_ring3_passes(capsys):
    code, out, _ = run_cli(capsys, "routing", "check",
                           corpus_path("ring3.json"))
    assert code == EXIT_OK
    assert "strictly inflationary: yes" in out


def test_routing_solve_forced_cycle(capsys):
    code, out, _ = run_cli(capsys, "routing", "solve",
                           corpus_path("disagree_repaired.json"),
                           "--force")
    assert code == EXIT_FAIL
    assert "status: cycle" in out
    assert "{(1 2 d),(2 1 d),eps}" in out
    assert "{(1 d),(2 d),eps}" in out


def test_routing_solve_refuses_without_force(capsys):
    code, _, err = run_cli(capsys, "routing", "solve",
                           corpus_path("disagree_repaired.json"))
    assert code == EXIT_FAIL
    assert "strictly inflationary" in err


def test_aco_census(capsys):
    code, out, _ = run_cli(capsys, "aco", "census")
    assert code == EXIT_OK
    assert "verdicts agree on 256/256 operators" in out


def test_logic_solve(capsys):
    code, out, _ = run_cli(capsys, "logic", "solve",
                           corpus_path("logic", "three_clause.pl"))
    assert code == EXIT_OK
    assert "model: {q}" in out
    assert "{} -> {p,q} -> {q,r} -> {q} -> {q}" in out


def test_logic_solve_unstratified(tmp_path, capsys):
    path = tmp_path / "loop.pl"
    path.write_text("p :- not p.\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "logic", "solve", str(path))
    assert code == EXIT_FAIL
    assert "negative cycle: p -> p" in out


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "routing", "check", str(path))
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


def _space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "elements": ["a", "b"], "scale": ["0", "1"],
        "dist": [["a", "b", "1"]]}), encoding="utf-8")
    return str(path)


def test_space_check_pass_and_fail(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "space", "check", _space_file(tmp_path))
    assert code == EXIT_OK and "result: PASS" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "elements": ["a", "b", "c"], "scale": ["0", "1", "2"],
        "dist": [["a", "b", "1"], ["b", "c", "1"], ["a", "c", "2"]]}),
        encoding="utf-8")
    code, out, _ = run_cli(capsys, "space", "check", str(bad))
    assert code == EXIT_FAIL and "result: FAIL" in out
    assert "strong-triangle" in out


@pytest.mark.parametrize("command, path, flags, expected", [
    (("space", "check"), "spaces/heights.json", (), EXIT_OK),
    (("space", "check"), "spaces/broken_triangle.json", (), EXIT_FAIL),
    (("aco", "certify"), "operators/shift2x2.json", ("--schedules", "3"),
     EXIT_OK),
    (("aco", "certify"), "operators/stall2x2.json", (), EXIT_FAIL),
    (("run", "sync"), "operators/shift2x2.json", (), EXIT_OK),
    (("run", "async"), "operators/shift2x2.json", ("--seed", "3"), EXIT_OK),
], ids=["heights", "broken-triangle", "certify", "certify-refuted",
        "run-sync", "run-async"])
def test_bundled_spaces_and_operator(capsys, command, path, flags, expected):
    # the commands the installed-console-script CI step runs
    code, out, _ = run_cli(capsys, *command, corpus_path(path), *flags)
    assert code == expected and out


def test_the_parser_is_built_once_per_process(capsys):
    from acokit.cli import build_parser
    assert build_parser() is build_parser()
    # a rejected command leaves it as it was
    with pytest.raises(SystemExit):
        main(["space", "check", "--no-such-flag"])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "space", "check",
                           corpus_path("spaces", "heights.json"))
    assert (code, out.splitlines()[-1]) == (EXIT_OK, "result: PASS")


def test_space_check_refuses_an_over_cap_space_before_building_it(
        tmp_path, capsys):
    # no dist entries: a table built first would be refused for a
    # missing entry instead
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "elements": [f"e{k}" for k in range(1025)], "scale": ["0", "1"]}),
        encoding="utf-8")
    code, out, err = run_cli(capsys, "space", "check", str(big))
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == ("error: axiom check over 1025 elements exceeds the "
                   "desk-scale cap 1024\n")


def test_trace_converged_run_ends_at_distance_zero(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "routing", "solve",
                         corpus_path("ring3.json"),
                         "--trace", str(trace))
    assert code == EXIT_OK
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,processor,activated,value,dist_to_fixpoint"
    data = [l for l in lines[1:] if not l.startswith("summary")]
    assert data[-1].rsplit(",", 1)[1] == "0"
    assert lines[-1].startswith("summary,")
    assert "converged_at=2" in lines[-1]


def test_trace_empty_trajectory():
    lines = trace_csv(Trajectory((), None, "horizon-exhausted")).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("t,processor")
    assert lines[1].startswith("summary,")


def test_run_async_operator_file(tmp_path, capsys):
    op_file = tmp_path / "op.json"
    op_file.write_text(json.dumps({
        "domains": [[0, 1], [0, 1]],
        "map": [[[0, 0], [0, 0]], [[0, 1], [0, 0]],
                [[1, 0], [0, 0]], [[1, 1], [0, 0]]],
        "start": [1, 1]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "async", str(op_file),
                           "--seed", "3", "--horizon", "60")
    assert code == EXIT_OK
    assert "status: converged" in out
    assert "final: (0 0)" in out


def test_aco_certify_exit_codes(tmp_path, capsys):
    cert = tmp_path / "const.json"
    cert.write_text(json.dumps({
        "domains": [[0, 1]],
        "map": [[[0], [0]], [[1], [0]]]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "aco", "certify", str(cert),
                           "--schedules", "3", "--horizon", "30")
    assert code == EXIT_OK and "verdict: certified" in out

    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({
        "domains": [[0, 1]],
        "map": [[[0], [0]], [[1], [1]]]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "aco", "certify", str(ident),
                           "--schedules", "3", "--horizon", "30")
    assert code == EXIT_FAIL and "verdict: refuted" in out
    assert "fixed points: (0),(1)" in out
    assert "stalled at: {0,1}\n" in out


def test_aco_certify_passes_activation_prob(tmp_path, capsys):
    cert = tmp_path / "const.json"
    cert.write_text(json.dumps({
        "domains": [[0, 1]],
        "map": [[[0], [0]], [[1], [0]]]}), encoding="utf-8")
    flags = ("--activation-prob", "1.0", "--fairness-window", "1",
             "--max-staleness", "1")
    code, _, _ = run_cli(capsys, "run", "async", str(cert), *flags)
    assert code == EXIT_OK
    out_json = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "aco", "certify", str(cert), *flags,
                           "--schedules", "3", "--json", str(out_json))
    assert code == EXIT_OK and "verdict: certified" in out
    assert json.loads(out_json.read_text())["sampling"]["activation_prob"] \
        == 1.0


def test_routing_solve_divergent_campaign(tmp_path, capsys):
    summary = tmp_path / "repaired.json"
    code, out, _ = run_cli(capsys, "routing", "solve",
                           corpus_path("disagree_repaired.json"),
                           "--mode", "async", "--force", "--schedules", "20",
                           "--json", str(summary))
    assert code == EXIT_FAIL
    assert "status: divergent" in out
    assert "converged: 20/20" in out
    doc = json.loads(summary.read_text())
    assert doc["status"] == "divergent"
    assert all(r["status"] == "converged" for r in doc["runs"])
    finals = {frozenset(tuple(p) for p in r["final"]) for r in doc["runs"]}
    assert len(finals) >= 2
    assert {frozenset(tuple(p) for p in f) for f in doc["finals"]} == finals
    assert f"distinct finals: {len(finals)}" in out


GOLDEN = [
    (("routing", "solve", corpus_path("ring3.json")), EXIT_OK,
     "file: {path}\nmode: sync\ngranularity: per-node\n"
     "status: converged\nfixed point: {{(1 d),(2 d),eps}}\n"
     "stable: yes\nconverged_at: 2\n"),
    (("routing", "solve", corpus_path("multi2.json")), EXIT_OK,
     "file: {path}\nmode: sync\ngranularity: per-node\n"
     "status: converged\nfixed point: {{(1 d),(2 d),(3 1 d),(3 2 d),eps}}\n"
     "stable: yes\nconverged_at: 3\n"),
    (("routing", "solve", corpus_path("single_arc.json")), EXIT_OK,
     "file: {path}\nmode: sync\ngranularity: per-node\n"
     "status: converged\nfixed point: {{(1 d),eps}}\n"
     "stable: yes\nconverged_at: 2\n"),
    (("logic", "solve", corpus_path("logic", "facts_only.pl")), EXIT_OK,
     "file: {path}\natoms: 2\nstrata: a=0 b=0\nmodel: {{a,b}}\nsteps: 2\n"
     "trajectory: {{}} -> {{a,b}} -> {{a,b}}\n"),
    (("logic", "solve", corpus_path("logic", "neg_ladder.pl")), EXIT_OK,
     "file: {path}\natoms: 4\nstrata: a=0 b=1 c=2 d=3\nmodel: {{a,c}}\n"
     "steps: 5\ntrajectory: {{}} -> {{a,b,c,d}} -> {{a}} -> {{a,c,d}} "
     "-> {{a,c}} -> {{a,c}}\n"),
    (("logic", "solve", corpus_path("logic", "two_strata.pl")), EXIT_OK,
     "file: {path}\natoms: 3\nstrata: p=2 q=1 r=0\nmodel: {{p,r}}\n"
     "steps: 4\ntrajectory: {{}} -> {{p,q,r}} -> {{r}} -> {{p,r}} "
     "-> {{p,r}}\n"),
]


@pytest.mark.parametrize("argv,expected_code,template", GOLDEN,
                         ids=[os.path.basename(g[0][-1]) for g in GOLDEN])
def test_golden_outputs_on_bundled_corpus(capsys, argv, expected_code,
                                          template):
    code, out, _ = run_cli(capsys, *argv)
    assert code == expected_code
    assert out == template.format(path=argv[-1])


def _campaign(tmp_dir, tag):
    trace = os.path.join(tmp_dir, f"trace_{tag}.csv")
    summary = os.path.join(tmp_dir, f"summary_{tag}.json")
    code = main(["routing", "solve", corpus_path("ring3.json"),
                 "--mode", "async", "--schedules", "5", "--seed", "42",
                 "--trace", trace, "--json", summary])
    with open(trace, "rb") as fh:
        trace_bytes = fh.read()
    with open(summary, "rb") as fh:
        summary_bytes = fh.read()
    return code, trace_bytes, summary_bytes


def test_campaign_reproducibility(tmp_path, capsys):
    code1, trace1, summary1 = _campaign(str(tmp_path), "a")
    out1 = capsys.readouterr().out
    code2, trace2, summary2 = _campaign(str(tmp_path), "b")
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert trace1 == trace2
    assert summary1 == summary2


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_cross_process_determinism(tmp_path, hash_seed):
    """Outputs must not depend on hash randomization."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "acokit.cli", "routing", "solve",
         corpus_path("ring3.json"), "--mode", "async",
         "--schedules", "3", "--seed", "5"],
        capture_output=True, text=True, env=env, check=True)
    record = tmp_path / "out.txt"
    record.write_text(result.stdout, encoding="utf-8")
    assert "status: converged" in result.stdout
    # compare against the in-process rendering under this interpreter
    expected = subprocess.run(
        [sys.executable, "-m", "acokit.cli", "routing", "solve",
         corpus_path("ring3.json"), "--mode", "async",
         "--schedules", "3", "--seed", "5"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="7"), check=True)
    assert result.stdout == expected.stdout


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_routing_solve_async_output_is_pinned(tmp_path, capsys, monkeypatch):
    """stdout, the trace of the first run and --json of a five-schedule
    campaign, byte for byte.  The pinned JSON leaves out ``ticks_drawn``,
    which counts work done rather than what the runs did."""
    _check_pinned_async_output(tmp_path, capsys, monkeypatch, (),
                               "ring3_async")


@pytest.mark.parametrize("granularity, prefix", [
    ("per-path", "ring3_async_per_path"),
    ("per-source-destination-nexthop", "ring3_async_per_nexthop"),
])
def test_routing_solve_async_output_is_pinned_per_granularity(
        tmp_path, capsys, monkeypatch, granularity, prefix):
    _check_pinned_async_output(tmp_path, capsys, monkeypatch,
                               ("--granularity", granularity), prefix)


def _check_pinned_async_output(tmp_path, capsys, monkeypatch, flags, prefix):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    trace, summary = tmp_path / "t.csv", tmp_path / "t.json"
    code, out, _ = run_cli(capsys, "routing", "solve", "corpus/ring3.json",
                           "--mode", "async", "--schedules", "5", *flags,
                           "--trace", str(trace), "--json", str(summary))
    assert code == EXIT_OK
    raw = summary.read_bytes()
    stats = json.loads(raw)["stats"]
    assert 0 < stats["ticks_drawn"] < stats["ticks_used"]
    drawn = f'    "ticks_drawn": {stats["ticks_drawn"]},\n'.encode()
    assert raw.count(drawn) == 1
    pinned = {f"{prefix}_stdout.txt": out.encode(),
              f"{prefix}_trace.csv": trace.read_bytes(),
              f"{prefix}.json": raw.replace(drawn, b"")}
    for name, got in pinned.items():
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert got == fh.read(), name


def _const_operator(tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({
        "domains": [[0, 1], [0, 1]],
        "map": [[[0, 0], [0, 0]], [[0, 1], [0, 0]],
                [[1, 0], [0, 0]], [[1, 1], [0, 0]]]}), encoding="utf-8")
    return str(path)


CAMPAIGN_COMMANDS = {
    "routing-solve": lambda tmp: ("routing", "solve", corpus_path("ring3.json"),
                                  "--mode", "async"),
    "logic-solve": lambda tmp: ("logic", "solve",
                                corpus_path("logic", "diamond.pl"),
                                "--mode", "async"),
    "aco-certify": lambda tmp: ("aco", "certify", _const_operator(tmp)),
}


# the synchronous modes run no campaign but check its flags alike
SCHEDULE_COUNT_COMMANDS = {
    **CAMPAIGN_COMMANDS,
    "routing-solve-sync": lambda tmp: ("routing", "solve",
                                       corpus_path("ring3.json"),
                                       "--horizon", "0"),
    "logic-solve-sync": lambda tmp: ("logic", "solve",
                                     corpus_path("logic", "diamond.pl"),
                                     "--horizon", "0"),
}


@pytest.mark.parametrize("schedules", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(SCHEDULE_COUNT_COMMANDS))
def test_campaign_commands_reject_fewer_than_one_schedule(
        tmp_path, capsys, command, schedules):
    argv = SCHEDULE_COUNT_COMMANDS[command](tmp_path)
    code, out, err = run_cli(capsys, *argv, "--schedules", schedules)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert f"schedules must be at least 1, got {schedules}" in err


@pytest.mark.parametrize("argv", [
    ("routing", "solve", corpus_path("ring3.json")),
    ("logic", "solve", corpus_path("logic", "diamond.pl")),
])
def test_sync_modes_ignore_the_schedule_count(capsys, argv):
    expected = run_cli(capsys, *argv, "--mode", "sync")
    assert expected[0] == EXIT_OK
    assert run_cli(capsys, *argv, "--mode", "sync", "--schedules", "3",
                   "--seed", "9") == expected


@pytest.mark.parametrize("flag, value", [
    ("--horizon", "0"), ("--max-staleness", "0"),
    ("--fairness-window", "1"), ("--activation-prob", "0"),
    ("--activation-prob", "1.5"),
])
@pytest.mark.parametrize("argv", [
    ("routing", "solve", corpus_path("ring3.json")),
    ("logic", "solve", corpus_path("logic", "diamond.pl")),
])
def test_both_modes_reject_the_same_campaign_flags(capsys, argv, flag, value):
    results = [run_cli(capsys, *argv, "--mode", mode, flag, value)
               for mode in ("sync", "async")]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(CAMPAIGN_COMMANDS))
def test_campaign_stats_in_json_are_byte_identical(tmp_path, capsys, command):
    argv = CAMPAIGN_COMMANDS[command](tmp_path)
    outputs = []
    for tag in ("a", "b"):
        summary = tmp_path / f"{tag}.json"
        code, out, _ = run_cli(capsys, *argv, "--schedules", "4",
                               "--seed", "6", "--json", str(summary))
        assert code == EXIT_OK
        assert "ticks_drawn" not in out and "evaluations" not in out
        outputs.append(summary.read_bytes())
    assert outputs[0] == outputs[1]
    stats = json.loads(outputs[0])["stats"]
    assert sorted(stats) == ["operator_evaluations", "runs", "ticks_drawn",
                             "ticks_used"]
    assert stats["runs"] == (16 if command == "aco-certify" else 4)
    assert stats["ticks_used"] >= stats["ticks_drawn"] > 0
    assert stats["operator_evaluations"] > 0


def _operator_file(tmp_path, **fields):
    """The constant-(0, 0) operator over [[0, 1], [0, 1]], with overrides."""
    doc = {"domains": [[0, 1], [0, 1]],
           "map": [[[a, b], [0, 0]] for a in (0, 1) for b in (0, 1)],
           **fields}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


_CONSTANT_MAP = [[[a, b], [0, 0]] for a in (0, 1) for b in (0, 1)]
_AB_MAP = [[[a, b], ["a", "a"]] for a in "ab" for b in "ab"]
_RING3 = {"nodes": ["d", "1", "2"], "dest": "d",
          "arcs": [["1", "d"], ["2", "d"], ["1", "2"], ["2", "1"]]}
_MALFORMED_OPERATORS = {
    "no-domains": {"map": _CONSTANT_MAP},
    "int-domains": {"domains": 5, "map": _CONSTANT_MAP},
    "int-start": {"domains": [[0, 1], [0, 1]], "map": _CONSTANT_MAP,
                  "start": 7},
    "top-level-list": [[0, 1], [0, 1]],
    "float-domain": {"domains": [[2.5, 1, 0], ["b", "a"]],
                     "map": _CONSTANT_MAP},
    "float-start": {"domains": [[0, 1], [0, 1]], "map": _CONSTANT_MAP,
                    "start": [0.5]},
    "list-domain-entry": {"domains": [[0, [1]], [0, 1]],
                          "map": _CONSTANT_MAP},
    "map-entry-not-a-pair": {"domains": [[0, 1], [0, 1]],
                             "map": [_CONSTANT_MAP[0] + [[0, 0]],
                                     *_CONSTANT_MAP[1:]]},
    # a string is not an array: each would read as its characters
    "str-domain": {"domains": ["ab", ["a", "b"]], "map": _AB_MAP},
    "str-map-state": {"domains": [["a", "b"], ["a", "b"]],
                      "map": [["".join(s), "aa"] for s, _ in _AB_MAP]},
    "str-start": {"domains": [["a", "b"], ["a", "b"]], "map": _AB_MAP,
                  "start": "ab"},
}
# argv with DOC for the malformed file and OP for a well-formed operator
MALFORMED_FILES = [
    pytest.param(argv, doc, id=f"{argv[1]}-{name}")
    for name, doc in _MALFORMED_OPERATORS.items()
    for argv in (("aco", "certify", "DOC"), ("run", "sync", "DOC"))
] + [
    pytest.param(("run", "async", "OP", "--schedule", "DOC"),
                 {"activations": [[0], [1]]}, id="schedule-no-horizon"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "permitted": [["1", "d"]]}, id="list-permitted"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "preference": "hop-count"}, id="str-preference"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a"], "scale": ["0"], "dist": 5},
                 id="int-dist"),
    # a string is not an array: each would read as its characters
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "arcs": ["1d", "2d"]}, id="str-arcs"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "nodes": "d12"}, id="str-nodes"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "permitted": {"1": ["1d"]}}, id="str-permitted"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "permitted": {"1": "1d"}},
                 id="str-permitted-list"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "preference": {"kind": "explicit",
                                           "pairs": [["1d", "12d"]]}},
                 id="str-preference-path"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": "ab", "scale": ["0", "1"],
                  "dist": [["a", "b", "1"]]}, id="str-elements"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a"], "scale": "0"}, id="str-scale"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a", "b"], "scale": ["0", "1"],
                  "dist": ["ab1"]}, id="str-dist-entry"),
    # labels are JSON strings, never made from other values
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "nodes": ["d", 1, "2"]}, id="int-node"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "dest": None}, id="null-dest"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "arcs": [[True, "d"]]}, id="bool-arc-node"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "permitted": {"1": [["1", ["d"]]]}},
                 id="list-path-node"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a", 1], "scale": ["0", "1"],
                  "dist": [["a", "1", "1"]]}, id="int-element"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a"], "scale": ["0", 1]}, id="int-scale-label"),
    # a file states each distance once
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a", "b"], "scale": ["0", "1", "2"],
                  "dist": [["a", "b", "1"], ["a", "b", "2"]]},
                 id="dist-pair-twice"),
    pytest.param(("space", "check", "DOC"),
                 {"elements": ["a", "b"], "scale": ["0", "1"],
                  "dist": [["a", "b", 1]]}, id="int-dist-label"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "preference": {}}, id="preference-without-kind"),
    pytest.param(("routing", "check", "DOC"),
                 {**_RING3, "preference": {"kind": 5}},
                 id="int-preference-kind"),
    # only an absent processor count is inferred
    pytest.param(("run", "async", "OP", "--schedule", "DOC"),
                 {"horizon": 2, "processors": 0, "activations": [[0], [1]]},
                 id="schedule-zero-processors"),
]


@pytest.mark.parametrize("argv, doc", MALFORMED_FILES)
def test_malformed_files_exit_2_with_one_error_line(tmp_path, capsys, argv,
                                                    doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    files = {"DOC": str(path), "OP": _operator_file(tmp_path)}
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_unknown_preference_kind_fails(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_RING3, "preference": {"kind": "widest"}}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "routing", "check", str(path))
    assert (code, out) == (EXIT_FAIL, "")
    assert err == "error: unknown preference kind 'widest'\n"


# each command would pass; only its output path lies in a missing directory
UNWRITABLE_OUTPUTS = {
    "space-check": lambda tmp: ("space", "check", _space_file(tmp)),
    "aco-certify": lambda tmp: ("aco", "certify", _const_operator(tmp)),
    "aco-census": lambda tmp: ("aco", "census"),
    "routing-solve": lambda tmp: ("routing", "solve", corpus_path("ring3.json")),
    "logic-solve": lambda tmp: ("logic", "solve",
                                corpus_path("logic", "diamond.pl")),
    "run-sync": lambda tmp: ("run", "sync", _operator_file(tmp)),
    "run-async": lambda tmp: ("run", "async", _operator_file(tmp)),
}


_UNWRITABLE_CASES = [
    ("space-check", "--json"), ("aco-certify", "--json"),
    ("aco-census", "--json"), ("routing-solve", "--json"),
    ("logic-solve", "--json"), ("routing-solve", "--trace"),
    ("logic-solve", "--trace"), ("run-sync", "--trace"),
    ("run-async", "--trace"),
]


# a writable --trace next to an unwritable --json must not stay on disk
@pytest.mark.parametrize("command, flag, with_trace", [
    *((command, flag, False) for command, flag in _UNWRITABLE_CASES),
    ("routing-solve", "--json", True), ("logic-solve", "--json", True),
], ids=[f"{command}-{flag}" for command, flag in _UNWRITABLE_CASES]
    + ["routing-solve---json-after---trace", "logic-solve---json-after---trace"])
def test_an_unwritable_output_path_leaves_stdout_empty(tmp_path, capsys,
                                                       command, flag,
                                                       with_trace):
    argv = UNWRITABLE_OUTPUTS[command](tmp_path)
    trace = tmp_path / "trace.csv"
    if with_trace:
        argv += ("--trace", str(trace))
    code, out, err = run_cli(capsys, *argv,
                             flag, str(tmp_path / "missing" / "out"))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not trace.exists()


@pytest.mark.parametrize("pragma", [
    "[1, 2]", '{"a": null}', '{"a": 1.5}', '{"a": true}'])
def test_logic_solve_rejects_a_mistyped_strata_pragma(tmp_path, capsys,
                                                      pragma):
    program = tmp_path / "p.pl"
    program.write_text(f"a.\nb :- not a.\n% strata: {pragma}\n",
                       encoding="utf-8")
    code, out, err = run_cli(capsys, "logic", "solve", str(program))
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: line 3: bad strata pragma: ")
    assert err.count("\n") == 1


def test_float_operator_values_are_bad_input(tmp_path, capsys):
    op_file = _operator_file(tmp_path, domains=[[2.5, 1, 0], ["b", "a"]])
    code, out, err = run_cli(capsys, "run", "sync", op_file)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == ("error: bad operator description: operator values must "
                   "be strings, integers or booleans, got 2.5\n")


@pytest.mark.parametrize("start", [[2, 1], [True, 1]])
def test_run_rejects_a_start_outside_the_domain(tmp_path, capsys, start):
    trace = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "run", "sync",
                             _operator_file(tmp_path, start=start),
                             "--trace", str(trace))
    assert code == EXIT_FAIL
    assert out == ""
    assert f"error: {start[0]!r} not in component domain" in err
    assert not trace.exists()


def test_run_rejects_a_map_image_outside_the_domain(tmp_path, capsys):
    image = [[[a, b], [True, 0]] for a in (0, 1) for b in (0, 1)]
    code, out, err = run_cli(capsys, "run", "sync",
                             _operator_file(tmp_path, map=image))
    assert code == EXIT_FAIL
    assert out == ""
    assert "operator produced True outside its component domain" in err


@pytest.mark.parametrize("inputs, message", BAD_MAP_INPUTS)
def test_run_rejects_bad_map_inputs(tmp_path, capsys, inputs, message):
    trace = tmp_path / "trace.csv"
    entries = [[state, [0, 0]] for state in inputs]
    code, out, err = run_cli(capsys, "run", "sync",
                             _operator_file(tmp_path, map=entries),
                             "--trace", str(trace))
    assert code == EXIT_FAIL
    assert out == ""
    assert f"error: {message}" in err
    assert not trace.exists()


@pytest.mark.parametrize("flags, doc, exit_code", [
    (("--schedule", "DOC"), {"activations": [[0], [1]]}, EXIT_BAD_INPUT),
    # tick 3 reads its own tick
    (("--schedule", "DOC"), {"horizon": 4, "processors": 2,
                             "activations": [[0, 1]] * 4,
                             "delays": [[3, 0, 1, 3]]}, EXIT_FAIL),
    # every count and index must be a JSON integer
    (("--schedule", "DOC"), {"horizon": 2.5, "activations": [[0], [1]]},
     EXIT_BAD_INPUT),
    (("--schedule", "DOC"), {"horizon": "2", "activations": [[0], [1]]},
     EXIT_BAD_INPUT),
    (("--schedule", "DOC"), {"horizon": 2, "processors": True,
                             "activations": [[0], [0]]}, EXIT_BAD_INPUT),
    (("--schedule", "DOC"), {"horizon": 2, "processors": 2,
                             "activations": [[0, True], [0, 1]]},
     EXIT_BAD_INPUT),
    (("--schedule", "DOC"), {"horizon": 2, "processors": 2,
                             "activations": [[0, 1], [0, 1]],
                             "delays": [[2, 0, 1, 1.0]]}, EXIT_BAD_INPUT),
    (("--schedule", "DOC"), {"horizon": 2, "processors": 2,
                             "activations": [[0, 1], [0, 2]]},
     EXIT_BAD_INPUT),
    (("--max-staleness", "0"), None, EXIT_BAD_INPUT),
    (("--activation-prob", "0"), None, EXIT_BAD_INPUT),
    (("--fairness-window", "1"), None, EXIT_BAD_INPUT),
    (("--horizon", "0"), None, EXIT_BAD_INPUT),
    # admissible, but for three processors where the operator has two
    (("--schedule", "DOC"), {"horizon": 2, "processors": 3,
                             "activations": [[0, 1, 2], [0, 1, 2]]},
     EXIT_FAIL),
    # a schedule file of no ticks, like --horizon 0
    (("--schedule", "DOC"), {"horizon": 0, "activations": []},
     EXIT_BAD_INPUT),
], ids=["malformed", "inadmissible", "float-horizon", "string-horizon",
        "bool-processors", "bool-index", "float-delay", "index-out-of-range",
        "staleness", "prob", "window", "horizon", "processor-count",
        "zero-horizon-file"])
def test_run_async_rejects_a_schedule_before_printing(tmp_path, capsys, flags,
                                                      doc, exit_code):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    argv = [str(path) if a == "DOC" else a for a in flags]
    code, out, err = run_cli(capsys, "run", "async", _operator_file(tmp_path),
                             *argv, "--trace", str(trace))
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not trace.exists()


@pytest.mark.parametrize("mode, flag", [
    ("sync", "--schedule"), ("sync", "--seed"), ("sync", "--schedules"),
    ("sync", "--horizon"), ("sync", "--max-staleness"),
    ("sync", "--fairness-window"), ("sync", "--activation-prob"),
    ("async", "--schedules"), ("async", "--max-steps"),
])
def test_run_rejects_flags_it_does_not_read(tmp_path, capsys, mode, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", mode, _operator_file(tmp_path), flag, "1"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-2"])
@pytest.mark.parametrize("command", ["routing", "run"])
def test_step_counts_below_1_are_rejected_before_printing(
        tmp_path, capsys, command, steps):
    argv = {"routing": ("routing", "solve", corpus_path("ring3.json")),
            "run": ("run", "sync", _operator_file(tmp_path))}[command]
    code, out, err = run_cli(capsys, *argv, "--max-steps", steps)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == f"error: max_steps must be at least 1, got {steps}\n"


@pytest.mark.parametrize("steps", ["-1", "5"])
def test_routing_solve_rejects_max_steps_in_async_mode_before_printing(
        capsys, steps):
    code, out, err = run_cli(capsys, "routing", "solve",
                             corpus_path("ring3.json"), "--mode", "async",
                             "--schedules", "2", "--max-steps", steps)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--horizon" in err


def test_an_atomless_program_is_rejected_in_async_mode_before_printing(
        tmp_path, capsys):
    path = tmp_path / "empty.pl"
    path.write_text("% no clauses\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "logic", "solve", str(path))
    assert code == EXIT_OK and "model: {}" in out
    code, out, err = run_cli(capsys, "logic", "solve", str(path),
                             "--mode", "async")
    assert (code, out) == (EXIT_FAIL, "")
    assert err == "error: program has an empty atom base\n"


def test_run_sync_reads_max_steps(tmp_path, capsys):
    op_file = _operator_file(tmp_path, start=[1, 1])
    code, out, _ = run_cli(capsys, "run", "sync", op_file, "--max-steps", "1")
    assert code == EXIT_FAIL and "status: horizon-exhausted" in out
    code, out, _ = run_cli(capsys, "run", "sync", op_file, "--max-steps", "2")
    assert code == EXIT_OK and "status: converged" in out


def test_cli_import_needs_no_package_outside_the_stdlib():
    # numpy included: only the commands that run a numpy pass import it
    check = ("import sys\n"
             "before = set(sys.modules)\n"
             "import acokit.cli\n"
             "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
             "print(sorted(added - set(sys.stdlib_module_names)"
             " - {'acokit'}))\n")
    proc = subprocess.run([sys.executable, "-c", check],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# every command, none of which runs a numpy pass, with its exit code; OP
# is an operator file, TRACE a CSV path
_NUMPY_FREE_COMMANDS = [
    (("aco", "census"), EXIT_OK),
    (("routing", "check", corpus_path("ring3.json")), EXIT_OK),
    (("routing", "solve", corpus_path("ring3.json")), EXIT_OK),
    (("routing", "solve", corpus_path("ring3.json"), "--mode", "async",
      "--schedules", "5", "--trace", "TRACE"), EXIT_OK),
    (("logic", "solve", corpus_path("logic", "mixed.pl")), EXIT_OK),
    (("logic", "solve", corpus_path("logic", "mixed.pl"), "--mode", "async",
      "--schedules", "5"), EXIT_OK),
    (("aco", "certify", "OP", "--schedules", "5"), EXIT_OK),
    (("run", "sync", "OP"), EXIT_OK),
    (("run", "async", "OP"), EXIT_OK),
    (("space", "check", corpus_path("spaces", "heights.json")), EXIT_OK),
    (("space", "check", corpus_path("spaces", "broken_triangle.json")),
     EXIT_FAIL),
]
_NUMPY_FREE_EXITS = "".join(f"exit {code}\n" for _, code in _NUMPY_FREE_COMMANDS)


def _run_numpy_free_commands(tmp_path, prelude, modules=("numpy",)):
    """Stdout of the commands, run in one fresh interpreter after
    ``prelude``; its last lines say whether each of ``modules`` was
    loaded."""
    files = {"OP": _operator_file(tmp_path, start=[1, 1]),
             "TRACE": str(tmp_path / "trace.csv")}
    argvs = [[files.get(a, a) for a in argv]
             for argv, _ in _NUMPY_FREE_COMMANDS]
    script = (f"import sys\n{prelude}\n"
              "import acokit, acokit.cli\n"
              f"for argv in {argvs!r}:\n"
              "    print('exit', acokit.cli.main(argv))\n"
              f"for name in {modules!r}:\n"
              "    print(name, 'loaded:', sys.modules.get(name) is not None)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _exit_lines(out):
    return "".join(line + "\n" for line in out.splitlines()
                   if line.startswith("exit "))


def test_commands_without_a_numpy_pass_leave_numpy_unimported(tmp_path):
    out = _run_numpy_free_commands(tmp_path, "")
    assert _exit_lines(out) == _NUMPY_FREE_EXITS
    assert out.endswith("numpy loaded: False\n")
    # an import of numpy would now raise ImportError
    assert _run_numpy_free_commands(
        tmp_path, "sys.modules['numpy'] = None") == out


def test_cli_commands_leave_dataclasses_and_inspect_unimported(tmp_path):
    # defining the result records as dataclasses cost about 30 ms of every
    # CLI start, most of it in generated methods and in importing inspect;
    # logging (with traceback and string) and fractions (with decimal and
    # numbers) are loaded only on demand
    modules = ("dataclasses", "inspect", "logging", "fractions")
    out = _run_numpy_free_commands(tmp_path, "", modules)
    assert _exit_lines(out) == _NUMPY_FREE_EXITS
    assert out.endswith("".join(f"{name} loaded: False\n"
                                for name in modules))


def test_routing_check_leaves_csv_unimported():
    # only the commands that write a --trace import csv
    check = ("import sys, acokit.cli\n"
             f"code = acokit.cli.main(['routing', 'check', "
             f"{corpus_path('ring3.json')!r}])\n"
             "print(code, 'csv' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", check],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n0 False\n")


# the acokit modules each command loads beside acokit, acokit.cli,
# acokit.errors and acokit.util
_COMMAND_MODULES = [
    (("space", "check", corpus_path("spaces", "heights.json")),
     {"ultrametric"}),
    (("aco", "certify", corpus_path("operators", "shift2x2.json"),
      "--schedules", "3"), {"iteration", "aco"}),
    (("aco", "census"), {"iteration", "aco"}),
    (("routing", "check", corpus_path("ring3.json")),
     {"iteration", "routing"}),
    (("routing", "solve", corpus_path("ring3.json"), "--mode", "async",
      "--schedules", "5", "--trace", "TRACE"), {"iteration", "routing"}),
    (("logic", "solve", corpus_path("logic", "mixed.pl"), "--mode", "async",
      "--schedules", "5", "--trace", "TRACE"), {"iteration", "logic"}),
    (("run", "sync", "OP"), {"iteration"}),
    (("run", "async", "OP", "--trace", "TRACE"), {"iteration"}),
]


@pytest.mark.parametrize("argv, modules", _COMMAND_MODULES,
                         ids=[" ".join(argv[:2]) for argv, _ in _COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv,
                                                     modules):
    files = {"OP": _operator_file(tmp_path, start=[1, 1]),
             "TRACE": str(tmp_path / "trace.csv")}
    argv = [files.get(a, a) for a in argv]
    script = ("import contextlib, io, sys, acokit.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = acokit.cli.main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m.startswith('acokit.')))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {"cli", "errors", "util", *modules}
    assert proc.stdout == f"0 {sorted('acokit.' + m for m in loaded)}\n"


# the public names, and the generic space layer that left the library:
# each removed name, in the submodule that defined it
_PUBLIC_NAMES = [
    "AcoCertificate", "BoxSequence", "DecomposedOperator",
    "FiniteUltrametricSpace", "HeightMetric", "RadiusScale", "Schedule",
    "Trajectory", "boxes_from_ultrametric", "campaign", "certify_aco",
    "check_admissible_prefix", "check_axioms", "check_isosceles",
    "check_spherical_completeness", "classify_contraction",
    "equivalence_census", "make_synchronous_schedule", "run_async",
    "run_sync", "sample_schedule", "search_box_sequence",
    "search_ultrametric", "ultrametric_from_boxes", "verify_box_sequence"]
_REMOVED_NAMES = {
    "ultrametric": ["ProductSpace", "string_distance", "string_space",
                    "height_space", "height_distance", "_element_at"],
    "routing": ["state_space"],
    "logic": ["interpretation_space", "interpretation_scale"],
    "errors": ["InvalidHeightError"],
}


def test_the_package_resolves_its_names_on_first_access():
    script = (
        "import importlib, sys, acokit\n"
        "print(sorted(m for m in sys.modules if m.startswith('acokit.')))\n"
        f"assert acokit.__all__ == {_PUBLIC_NAMES!r}, acokit.__all__\n"
        f"for module, names in {_REMOVED_NAMES!r}.items():\n"
        "    for name in names:\n"
        "        assert not hasattr(importlib.import_module("
        "'acokit.' + module), name), name\n"
        "        if not name.startswith('_'):\n"
        "            try:\n"
        "                getattr(acokit, name)\n"
        "            except AttributeError:\n"
        "                continue\n"
        "            raise AssertionError(name)\n"
        "for name in acokit.__all__:\n"
        "    value = getattr(acokit, name)\n"
        "    assert value is getattr(sys.modules[value.__module__], name)\n"
        "    assert name not in vars(acokit), name\n"
        "assert set(acokit.__all__) <= set(dir(acokit))\n"
        "scope = {}\n"
        "exec('from acokit import *', scope)\n"
        "print(sorted(set(scope) - {'__builtins__'})"
        " == sorted(acokit.__all__))\n"
        "try:\n"
        "    acokit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[]\nTrue\n"
                           "module 'acokit' has no attribute 'no_such_name'\n")


def test_a_patched_function_is_seen_through_the_package(monkeypatch):
    import acokit
    from acokit import iteration

    def patched(*args, **kwargs):
        return "patched"

    monkeypatch.setattr(iteration, "run_sync", patched)
    assert acokit.run_sync is patched


def _subcommands(parser):
    """The parsers of ``parser``'s subcommands, by name."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _parsed(parse, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_each_group_parses_as_the_full_parser_does():
    # main builds the commands of the group its first argument names only;
    # every help text and usage error must be the full parser's, byte for
    # byte
    from acokit.cli import _GROUPS, build_parser
    full = build_parser()
    groups = _subcommands(full)
    assert list(groups) == list(_GROUPS)
    argvs = [["--help"], [], ["nope"]]
    for group, group_parser in groups.items():
        argvs += [[group, "--help"], [group], [group, "nope"]]
        for leaf, leaf_parser in _subcommands(group_parser).items():
            argvs.append([group, leaf, "--help"])
            required = [a for a in leaf_parser._actions if a.required]
            if required:  # a missing argument
                argvs.append([group, leaf])
            argvs.append([group, leaf, "x", "--no-such-flag"])
    assert len(argvs) == 3 + 3 * 5 + 8 * 2 + 7
    for argv in argvs:
        assert _parsed(main, argv) == _parsed(full.parse_args, argv), argv


# stderr at ACOKIT_LOG=debug of the certify command below and of aco census
_CERTIFY = ("aco", "certify", corpus_path("operators", "shift2x2.json"),
            "--schedules", "3")
_CERTIFY_INFO = ("INFO:acokit:campaign: runs=12 ticks_used=204 ticks_drawn=33 "
                 "operator_evaluations=4\n")
_CERTIFY_DEBUG = ("DEBUG:acokit:certify_aco: fixed_points=1 boxes=3 "
                  "verdict=certified\n" + _CERTIFY_INFO)
_CENSUS_DEBUG = ("DEBUG:acokit:equivalence_census: states=4 maps=27 "
                 "translations=4 box_chains=7 metric_searches=7 metrics=7 "
                 "mismatches=0\n")


def _logged(level, argv):
    proc = subprocess.run([sys.executable, "-m", "acokit.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, ACOKIT_LOG=level))
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("level, certify_err, census_err", [
    ("debug", _CERTIFY_DEBUG, _CENSUS_DEBUG),
    ("DeBuG", _CERTIFY_DEBUG, _CENSUS_DEBUG),
    ("INFO", _CERTIFY_INFO, ""),
    ("warning", "", ""),
    ("Critical", "", ""),
], ids=["debug", "DeBuG", "INFO", "warning", "Critical"])
def test_acokit_log_sets_the_level_in_any_case(level, certify_err,
                                               census_err):
    # the certify INFO line is that of earlier versions, and at debug the
    # certificate's own counters precede it; the census line no
    # longer counts witness spaces but counts the maps whose heights were
    # searched, and no classify_contraction line precedes it
    assert _logged(level, _CERTIFY) == (EXIT_OK, certify_err)
    assert _logged(level, ("aco", "census")) == (EXIT_OK, census_err)


@pytest.mark.parametrize("level", ["basic_format", "verbose", "", "10"])
def test_an_unknown_acokit_log_value_is_bad_input(capsys, monkeypatch,
                                                  level):
    # basic_format used to crash (logging.BASIC_FORMAT is a format string)
    # and verbose was silently taken as warning
    monkeypatch.setenv("ACOKIT_LOG", level)
    code, out, err = run_cli(capsys, "routing", "check",
                             corpus_path("ring3.json"))
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == ("error: ACOKIT_LOG must be one of debug, info, warning, "
                   f"error, critical (in any case), got {level!r}\n")


def test_contraction_checks_leave_numpy_ma_unimported():
    # numpy.ma costs tens of milliseconds to import on first use (a plain
    # np.unique reaches for it), so the checks must not pull it in
    check = ("import sys\n"
             "from acokit import logic, routing\n"
             "program = logic.parse_program('r.\\nq :- not r.\\np :- not q.')\n"
             "logic.classify_tp_contraction(program)\n"
             f"routing.verify_strict_contraction(routing.load_instance("
             f"{corpus_path('ring3.json')!r}))\n"
             "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", check],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
