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
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    trace, summary = tmp_path / "t.csv", tmp_path / "t.json"
    code, out, _ = run_cli(capsys, "routing", "solve", "corpus/ring3.json",
                           "--mode", "async", "--schedules", "5",
                           "--trace", str(trace), "--json", str(summary))
    assert code == EXIT_OK
    raw = summary.read_bytes()
    stats = json.loads(raw)["stats"]
    assert 0 < stats["ticks_drawn"] < stats["ticks_used"]
    drawn = f'    "ticks_drawn": {stats["ticks_drawn"]},\n'.encode()
    assert raw.count(drawn) == 1
    pinned = {"ring3_async_stdout.txt": out.encode(),
              "ring3_async_trace.csv": trace.read_bytes(),
              "ring3_async.json": raw.replace(drawn, b"")}
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


# commands that run no numpy pass; OP is an operator file, TRACE a CSV path
_NUMPY_FREE_COMMANDS = [
    ("routing", "check", corpus_path("ring3.json")),
    ("routing", "solve", corpus_path("ring3.json"), "--mode", "async",
     "--schedules", "5", "--trace", "TRACE"),
    ("logic", "solve", corpus_path("logic", "mixed.pl"), "--mode", "async",
     "--schedules", "5"),
    ("aco", "certify", "OP", "--schedules", "5"),
    ("run", "async", "OP"),
]


def _run_numpy_free_commands(tmp_path, prelude, modules=("numpy",)):
    """Stdout of the commands, run in one fresh interpreter after
    ``prelude``; its last lines say whether each of ``modules`` was
    loaded."""
    files = {"OP": _operator_file(tmp_path, start=[1, 1]),
             "TRACE": str(tmp_path / "trace.csv")}
    argvs = [[files.get(a, a) for a in argv] for argv in _NUMPY_FREE_COMMANDS]
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


def test_commands_without_a_numpy_pass_leave_numpy_unimported(tmp_path):
    out = _run_numpy_free_commands(tmp_path, "")
    assert out.count("exit 0\n") == len(_NUMPY_FREE_COMMANDS)
    assert out.endswith("numpy loaded: False\n")
    # an import of numpy would now raise ImportError
    assert _run_numpy_free_commands(
        tmp_path, "sys.modules['numpy'] = None") == out


def test_cli_commands_leave_dataclasses_and_inspect_unimported(tmp_path):
    # defining the result records as dataclasses cost about 30 ms of every
    # CLI start, most of it in generated methods and in importing inspect
    out = _run_numpy_free_commands(tmp_path, "", ("dataclasses", "inspect"))
    assert out.count("exit 0\n") == len(_NUMPY_FREE_COMMANDS)
    assert out.endswith("dataclasses loaded: False\ninspect loaded: False\n")


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
