import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from fibresum.cli import _COMMANDS, main, run
from fibresum.config import parse_config, parse_config_text
from fibresum.errors import ConfigError
from fibresum.settings import bundled_path, key_names

GOLDEN = Path(__file__).parent / "golden"


def test_bundled_corollary_config_parses_to_five_gluings():
    config = parse_config(bundled_path("corollary15.cfg"))
    recipe = config.recipes["cor15"]
    assert recipe.total_copies == 5
    kinds = [(type(t).__name__, t.kind) for t in config.tasks]
    assert kinds == [("TheoremTask", "verify"), ("EnumerateTask", "enumerate")]
    assert config.seed == 0


def test_empty_config_rejected():
    with pytest.raises(ConfigError, match="no tasks"):
        parse_config_text("")


def test_flip_on_symplectic_torus_rejected_at_load_time():
    text = """
    [manifold T4]
    builtin = T4

    [recipe bad]
    manifold = T4
    glue = Tx -

    [task enumerate]
    recipe = bad
    """
    with pytest.raises(ConfigError, match="not flippable"):
        parse_config_text(text)


def test_unresolved_references_are_named():
    with pytest.raises(ConfigError, match="ghost"):
        parse_config_text(
            "[manifold T4]\nbuiltin = T4\n\n[recipe r]\nmanifold = T4\nglue = ghost +\n"
            "\n[task enumerate]\nrecipe = r\n"
        )
    with pytest.raises(ConfigError, match="missing"):
        parse_config_text("[manifold T4]\nbuiltin = T4\n\n[task enumerate]\nrecipe = missing\n")


def test_schema_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text("# comment\nnot a pair\n", path="cfg")
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text("seed = -1\n[task solve]\nprimes = 3\n")


def test_custom_manifold_and_torus_sections():
    text = """
    [manifold M]
    euler = 12
    signature = -8
    b1 = 0
    b2 = 10
    basis = F S
    c1 = 1 0
    pairing_row = 0 1
    pairing_row = 1 -1
    pi1_tori_generate = true
    simply_connected = true

    [torus F]
    manifold = M
    class = 1 0
    kind = symplectic
    dual = 0 1
    parallel = true

    [recipe double]
    manifold = M
    glue = F + +

    [task enumerate]
    recipe = double
    """
    config = parse_config_text(text)
    recipe = config.recipes["double"]
    assert recipe.base.name == "M"
    assert recipe.total_copies == 2
    out = io.StringIO()
    assert run(config, {"enumerate"}, stream=out) == 0
    assert "pi0 lower bound: 1" in out.getvalue()


def test_invalid_custom_manifold_rejected():
    text = """
    [manifold M]
    euler = 3
    signature = -8
    b1 = 0
    b2 = 10
    basis = F S
    pairing_row = 0 1
    pairing_row = 1 -1
    simply_connected = true

    [task solve]
    primes = 3
    """
    with pytest.raises(ConfigError, match="inconsistent"):
        parse_config_text(text)


def test_unknown_pairing_entries_parse():
    text = """
    [manifold M]
    euler = 4
    signature = 0
    b1 = 0
    b2 = 2
    basis = A B
    pairing_row = 0 ?
    pairing_row = ? -2
    simply_connected = true

    [task solve]
    primes = 3
    """
    config = parse_config_text(text)
    assert config.manifolds["M"].pairing.entries[0][1] is None


def test_machine_reports_are_byte_identical_across_runs():
    config_path = bundled_path("corollary15.cfg")

    def render():
        config = parse_config(config_path)
        config.output_format = "machine"
        out = io.StringIO()
        assert run(config, None, stream=out) == 0
        return out.getvalue()

    first, second = render(), render()
    assert first == second
    doc = json.loads(first)
    assert doc["divisibilities"] == ["1", "3"]
    assert doc["pi0_lower_bound"] == "2"
    assert doc["manifold"]["euler"] == "60"


def test_table_and_machine_agree_on_numbers():
    config_path = bundled_path("corollary15.cfg")
    config = parse_config(config_path)
    table_out = io.StringIO()
    run(config, {"enumerate"}, stream=table_out)
    config = parse_config(config_path)
    config.output_format = "machine"
    machine_out = io.StringIO()
    run(config, {"enumerate"}, stream=machine_out)
    table = table_out.getvalue()
    doc = json.loads(machine_out.getvalue())
    assert f"pi0 lower bound: {doc['pi0_lower_bound']}" in table
    for form in doc["forms"]:
        c1_text = "(" + ", ".join(form["c1"]) + ")"
        assert c1_text in table
    divis = "{" + ", ".join(doc["divisibilities"]) + "}"
    assert divis in table
    assert f"e = {doc['manifold']['euler']}" in table


def test_cli_verify_and_enumerate_exit_codes():
    assert main(["verify", "--config", "corollary15.cfg"]) == 0
    assert main(["enumerate", "--config", "corollary15.cfg"]) == 0
    assert main(["run", "--config", "corollary15.cfg"]) == 0


def test_cli_failing_verify_exits_2(capsys):
    failing = """
    [manifold T4]
    builtin = T4

    [task verify]
    manifold = T4
    tori = Tz
    sum = Tz
    n = 3
    """
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "failing.cfg"
        path.write_text(failing)
        assert main(["verify", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert main(["verify", "--config", str(path), "--output", "machine"]) == 2
        doc = json.loads(capsys.readouterr().out)
    assert "fail" in out
    assert out.splitlines()[-1] == "error: hypothesis gate failed"
    assert doc["errors"] == ["hypothesis gate failed"]


def test_build_task_reports_recipe_and_manifold():
    text = """
    [manifold T4]
    builtin = T4

    [task build]
    manifold = T4
    tori = Tz Tx Ty
    sum = Tw
    n = 3
    """
    config = parse_config_text(text)
    out = io.StringIO()
    assert run(config, {"build"}, stream=out) == 0
    rendered = out.getvalue()
    assert "total copies: 5" in rendered
    assert "e = 60" in rendered


def test_a_build_of_many_copies_prints_each_gluing_as_one_count():
    # n = 15015 glues Tw 15014 times: the table gives the count, not one
    # sign per copy.
    text = "[manifold T4]\nbuiltin = T4\n[task build]\nmanifold = T4\ntori = Tz Tx Ty\nsum = Tw\nn = 15015\n"
    out = io.StringIO()
    assert run(parse_config_text(text), {"build"}, stream=out) == 0
    glue_lines = [line for line in out.getvalue().splitlines() if line.startswith("  glue ")]
    assert glue_lines == ["  glue Tx +1", "  glue Ty +1", "  glue Tz +1", "  glue Tw +15014"]
    out = io.StringIO()
    assert run(parse_config_text("output = machine\n" + text), {"build"}, stream=out) == 0
    (build,) = json.loads(out.getvalue())["tasks"]
    assert build["total_copies"] == "15017"
    assert build["gluings"][-1]["signs"] == ["1"] * 15014


def test_recipe_round_trips_through_config_section():
    from fibresum.config import recipe_config_section

    # An all-plus recipe, and one with minus signs on two gluings.
    cor15 = parse_config(bundled_path("corollary15.cfg")).recipes["cor15"]
    mixed = parse_config(GOLDEN / "build.cfg").recipes["mixed"]
    for recipe in (cor15, mixed):
        section = recipe_config_section(recipe, "T4")
        text = (
            "[manifold T4]\nbuiltin = T4\n\n"
            + section
            + f"\n[task enumerate]\nrecipe = {recipe.name}\n"
        )
        reparsed = parse_config_text(text)
        again = reparsed.recipes[recipe.name]
        assert again.gluings == recipe.gluings
        assert again.base == recipe.base
    assert section.splitlines()[2:] == ["glue = Tz + + -", "glue = Tx +", "glue = Ty -", "glue = Tw + +"]


def test_inconsistent_custom_record_trips_the_alarm():
    # Structurally valid data whose claimed c1 is not characteristic:
    # the tracked class C has odd square but pairs evenly with c1. The
    # identity check must fail and surface as exit code 3.
    text = """
    [manifold M]
    euler = 12
    signature = -8
    b1 = 0
    b2 = 10
    basis = A B C
    c1 = 0 0 0
    pairing_row = 0 1 0
    pairing_row = 1 0 0
    pairing_row = 0 0 1
    pi1_tori_generate = true
    simply_connected = true

    [torus F]
    manifold = M
    class = 1 0 0
    kind = symplectic
    dual = 0 1 0

    [recipe sum]
    manifold = M
    glue = F +

    [task enumerate]
    recipe = sum
    """
    config = parse_config_text(text)
    out = io.StringIO()
    assert run(config, {"enumerate"}, stream=out) == 3
    rendered = out.getvalue()
    assert "mathematical inconsistency" in rendered
    assert "parity" in rendered


def test_cli_solve_includes_all_divisibilities(capsys):
    assert main(["solve", "--primes", "3,5", "--output", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"3", "5", "15"} <= set(doc["divisibilities"])
    assert doc["manifold"]["euler"] == "324"


def test_cli_linking_reports_relation(capsys):
    assert main(["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"]) == 0
    out = capsys.readouterr().out
    assert "torus relation: (1, 1, 1)" in out
    assert main(
        ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk", "--output", "machine"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    linking_tasks = [t for t in doc["tasks"] if t["task"] == "linking"]
    assert linking_tasks[0]["relation"] == ["1", "1", "1"]
    assert linking_tasks[0]["axis_linking"] == ["1", "1", "1"]


def test_cli_missing_config_is_validation_error(capsys):
    assert main(["enumerate", "--config", "does-not-exist.cfg"]) == 2
    assert "error" in capsys.readouterr().err


def test_config_cap_bounds_chern_classes_and_sample_key_is_gone(tmp_path, capsys):
    text = """
    cap = 16

    [manifold T4]
    builtin = T4

    [recipe wide]
    manifold = T4
    glue = Tz + + + + + + + +

    [task enumerate]
    recipe = wide
    """
    # 2^8 assignments fall into 9 Chern classes, which fit under the cap.
    config = parse_config_text(text)
    config.output_format = "machine"
    out = io.StringIO()
    assert run(config, {"enumerate"}, stream=out) == 0
    doc = json.loads(out.getvalue())
    task = doc["tasks"][0]
    first, stop = (int(i) for i in task["form_range"])
    assert len(doc["forms"][first:stop]) == 9
    assert task["flippable_copies"] == "8" and "assignments_covered" not in task
    # Ty x4 and Tz x4 give 25 classes, more than the cap holds.
    wider = text.replace("glue = Tz + + + + + + + +", "glue = Ty + + + +\n    glue = Tz + + + +")
    out = io.StringIO()
    assert run(parse_config_text(wider), {"enumerate"}, stream=out) == 2
    assert "enumeration too large" in out.getvalue()
    path = tmp_path / "sample.cfg"
    path.write_text(text.replace("cap = 16", "cap = 16\n    sample = true"))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown top-level key 'sample'" in capsys.readouterr().err


def test_cli_solve_three_primes_enumerates_every_divisibility(capsys):
    assert main(["solve", "--primes", "3,5,7", "--output", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["divisibilities"] == ["1", "3", "5", "7", "15", "21", "35", "105"]
    assert doc["pi0_lower_bound"] == "8"
    assert doc["errors"] == []


@pytest.mark.parametrize("primes", [(3, 5), (3, 5, 7)])
def test_solve_report_keeps_the_benchmark_contract(primes, capsys):
    # The benchmark's solve oracle reads only the report: the per-prime
    # `assignments`, with signs in the gluing order Tx, Ty, k copies of
    # Tz, n - 1 copies of Tw. Checked here by plain arithmetic.
    from fibresum.construct import solve_signs

    labels = [g.torus_label for g in solve_signs(primes).recipe.gluings]
    assert labels == ["Tx", "Ty", "Tz", "Tw"]
    assert main(["solve", "--primes", ",".join(map(str, primes)), "--output", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (solve,) = [t for t in doc["tasks"] if t["task"] == "solve"]
    n, k = math.prod(primes), int(solve["lagrangian_copies"])
    m = n - 1

    def c1_of(signs):
        assert len(signs) == 2 + k + m and signs[2 + k :] == [1] * m
        return [-(signs[0] + m), -(signs[1] + m), -(sum(signs[2 : 2 + k]) + m), 0, 0, 0]

    for form in doc["forms"]:
        assert c1_of([int(x) for x in form["signs"]]) == [int(x) for x in form["c1"]]
    assert sorted(int(p) for p in solve["assignments"]) == sorted(primes)
    for p, entry in solve["assignments"].items():
        signs = [int(x) for x in entry["signs"]]
        assert signs[:2] == [1, 1]
        assert math.gcd(*c1_of(signs)) == int(p)


def test_cli_solve_sums_the_recipe_once(monkeypatch, capsys):
    # The CLI's runners import the layers when they run, so patching the
    # modules that hold a module-level reference covers every caller.
    from fibresum import construct, gompfsum

    calls = []
    original = gompfsum.sum_invariants

    def counted(recipe):
        calls.append(recipe.name)
        return original(recipe)

    for module in (gompfsum, construct):
        monkeypatch.setattr(module, "sum_invariants", counted)
    assert main(["solve", "--primes", "3,5"]) == 0
    assert calls == ["T4-n15"]


def test_each_form_pairing_row_is_computed_once(monkeypatch, capsys):
    # The divisibility bounds and the c1 identity checks read the same row.
    from collections import Counter

    from fibresum.intlat import PairingMatrix

    computed = []
    original = PairingMatrix._basis_row

    def counted(pairing, v):
        computed.append(v.coords)
        return original(pairing, v)

    monkeypatch.setattr(PairingMatrix, "_basis_row", counted)
    assert main(["run", "--config", str(GOLDEN / "wide3.cfg"), "--output", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any(entry["check"].endswith("c1 identities over all forms") for entry in doc["checks"])
    c1s = {tuple(int(x) for x in form["c1"]) for form in doc["forms"]}
    assert Counter(c for c in computed if c in c1s) == Counter(c1s)


def test_cli_solve_cap_error_keeps_the_solve_section(capsys):
    # The witnesses are read off the enumeration, which the cap stops, so
    # no prime line is written.
    assert main(["solve", "--primes", "3,5", "--cap", "4"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "sign solver (n = 15)",
        "--------------------",
        "  recipe T4-n15: 27 copies, 11 parallel Lagrangian copies",
        "error: enumeration too large: more than 4 distinct Chern classes after gluing Tz",
    ]


@pytest.mark.parametrize("output", ["table", "machine"])
def test_running_out_of_memory_exits_2_with_the_partial_report(output, monkeypatch, capsys):
    from fibresum import construct

    def exhausted(recipe, **kwargs):
        raise MemoryError

    monkeypatch.setattr(construct, "enumerate_forms", exhausted)
    assert main(["solve", "--primes", "3,5", "--output", output]) == 2
    captured = capsys.readouterr()
    error = "out of memory while running the solve task"
    if output == "machine":
        doc = json.loads(captured.out)
        assert [t["task"] for t in doc["tasks"]] == ["solve"]
        assert doc["errors"] == [error]
    else:
        lines = captured.out.splitlines()
        assert lines[0] == "sign solver (n = 15)"
        assert lines[-1] == f"error: {error}"
    assert captured.err == ""


def test_cli_solve_input_errors_exit_2(capsys):
    assert main(["solve", "--primes", "4"]) == 2
    assert "odd prime" in capsys.readouterr().out
    assert main(["solve"]) == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--primes", ""], "--primes: solve task needs at least one prime"),
        (["linking", "--link", ""], "--link: expected a file name, got an empty value"),
        (
            ["solve", "--config", "corollary15.cfg", "--primes", "3"],
            "--config and --primes cannot be combined",
        ),
        (
            ["linking", "--config", "corollary15.cfg", "--link", "borromean.lnk"],
            "--config and --link cannot be combined",
        ),
        (
            ["linking", "--config", "corollary15.cfg", "--axis", "axis.lnk"],
            "--config and --axis cannot be combined",
        ),
    ],
)
def test_cli_rejects_empty_and_conflicting_inline_flags(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


TOP_USAGE = "usage: fibresum COMMAND [--FLAG VALUE ...]\n"
COMMANDS = "(verify, build, enumerate, run, solve, linking)"
VERIFY_USAGE = "usage: fibresum verify --config PATH [--output table|machine] [--seed N] [--cap N]\n"
ENUMERATE_USAGE = VERIFY_USAGE.replace("verify", "enumerate")
SOLVE_USAGE = (
    "usage: fibresum solve [--config PATH] [--output table|machine] [--seed N] [--cap N] "
    "[--primes P1,P2,...]\n"
)
LINKING_USAGE = (
    "usage: fibresum linking [--config PATH] [--output table|machine] [--seed N] [--cap N] "
    "[--link PATH] [--axis PATH]\n"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], TOP_USAGE + f"fibresum: error: expected a command {COMMANDS}\n"),
        (["frobnicate"], TOP_USAGE + f"fibresum: error: unknown command 'frobnicate' {COMMANDS}\n"),
        (
            ["verify", "--config", "corollary15.cfg", "--out", "machine"],
            VERIFY_USAGE + "fibresum: error: unknown flag '--out' for verify\n",
        ),
        (
            ["verify", "corollary15.cfg"],
            VERIFY_USAGE + "fibresum: error: unknown flag 'corollary15.cfg' for verify\n",
        ),
        (
            ["enumerate", "--config", "corollary15.cfg", "--primes", "3"],
            ENUMERATE_USAGE + "fibresum: error: unknown flag '--primes' for enumerate\n",
        ),
        (["solve", "--primes"], SOLVE_USAGE + "fibresum: error: --primes expects a value\n"),
        (["verify", "--seed", "1"], VERIFY_USAGE + "fibresum: error: verify needs --config\n"),
        (
            ["solve", "--primes", "3", "--primes", "5"],
            SOLVE_USAGE + "fibresum: error: --primes given twice\n",
        ),
        (["solve"], SOLVE_USAGE + "fibresum: error: solve needs --config or --primes\n"),
        (
            ["linking", "--seed", "1"],
            LINKING_USAGE + "fibresum: error: linking needs --config or --link\n",
        ),
        (
            ["linking", "--axis", "axis.lnk"],
            LINKING_USAGE + "fibresum: error: linking needs --config or --link\n",
        ),
        # Past the reader, a flag's value meets the config rules and is
        # reported at the flag.
        (["solve", "--primes", "3", "--seed", "x"], "error: --seed: seed: expected an integer, got 'x'\n"),
        (
            ["solve", "--primes", "3", "--output", "xml"],
            "error: --output: output must be 'table' or 'machine', got 'xml'\n",
        ),
        (["solve", "--primes=3", "--seed=x"], "error: --seed: seed: expected an integer, got 'x'\n"),
        (["solve", "--primes=3", "--cap=0"], "error: --cap: cap must be positive\n"),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "prefix-flag",
        "positional",
        "other-command-flag",
        "missing-value",
        "missing-config",
        "repeated-flag",
        "no-primes",
        "no-link",
        "axis-without-link",
        "bad-int",
        "bad-choice",
        "equals-bad-int",
        "equals-cap",
    ],
)
def test_usage_errors_exit_2_with_usage_on_stderr(argv, err, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_help_lists_commands_and_flags_and_exits_0(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] + "\n" == TOP_USAGE
    assert lines[4] == "  verify                  run the hypothesis gate for the config's verify tasks"
    assert [line.split()[0] for line in lines[4:]] == COMMANDS.strip("()").split(", ")
    # `--help` wins wherever it stands, with or without other flags.
    assert main(["solve", "--primes", "3", "--help"]) == 0
    assert capsys.readouterr().out == SOLVE_USAGE + (
        "\n"
        "realize one divisibility per prime\n"
        "\n"
        "  --config PATH           configuration file (bundled names like corollary15.cfg also resolve)\n"
        "  --output table|machine  report format\n"
        "  --seed N                seed for the projection directions of linking numbers\n"
        "  --cap N                 most distinct Chern classes the sign enumeration may hold after a gluing\n"
        "  --primes P1,P2,...      distinct odd primes\n"
    )


# Each command whose task section is given in flags, and that section's keys.
TASK_FLAGS = {"solve": key_names("task solve"), "linking": key_names("task linking")}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_the_key_table_drives_the_flags(command, capsys):
    keys = key_names("") + TASK_FLAGS.get(command, [])
    assert main([command, "--help"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[4:]]
    assert listed == ["--config"] + [f"--{key}" for key in keys]
    for key in keys:
        # A flag the command takes is refused only for its missing value.
        assert main([command, f"--{key}"]) == 2
        assert capsys.readouterr().err.endswith(f"fibresum: error: --{key} expects a value\n")


def test_readme_command_line_names_every_command_and_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert [c for c in _COMMANDS if f"fibresum {c} " not in section] == []
    keys = ["config", *key_names("")] + [key for keys in TASK_FLAGS.values() for key in keys]
    assert [key for key in keys if f"--{key}" not in section] == []


def test_closed_output_pipe_exits_1_without_a_traceback():
    import os

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # The report (over 600 kB) outgrows the pipe buffer, so the job writes
    # after the read end is closed whatever the timing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibresum", "solve", "--primes", "3,5,7", "--output", "machine"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_bundled_negative_control_and_solver_configs_run():
    out = io.StringIO()
    assert run(parse_config(bundled_path("mcmullen_taubes.cfg")), None, stream=out) == 0
    assert "divisibility inconclusive" in out.getvalue()
    assert "pi0 lower bound: 1" in out.getvalue()
    out = io.StringIO()
    assert run(parse_config(bundled_path("solve35.cfg")), None, stream=out) == 0
    assert "{1, 3, 5, 15}" in out.getvalue()


def test_cli_subcommand_with_no_matching_tasks(capsys):
    assert main(["solve", "--config", "corollary15.cfg"]) == 2
    assert "no matching tasks" in capsys.readouterr().out


def test_module_entry_point_runs():
    import os
    import pathlib

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "fibresum", "verify", "--config", "corollary15.cfg"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "overall" in proc.stdout


def test_linking_error_keeps_finished_tasks_in_report(tmp_path, capsys):
    # Two unit squares 1e-8 apart: embedded, but too close for the
    # floating-point Gauss integral, so the linking task fails.
    (tmp_path / "close.lnk").write_text(
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n\n"
        "0 0 1/100000000\n1 0 1/100000000\n1 1 1/100000000\n0 1 1/100000000\n"
    )
    (tmp_path / "close.cfg").write_text(
        "output = machine\n\n[task solve]\nprimes = 3\n\n[task linking]\nlink = close.lnk\n"
    )
    assert main(["run", "--config", str(tmp_path / "close.cfg")]) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [t["task"] for t in doc["tasks"]] == ["solve", "enumerate"]
    assert "3" in doc["divisibilities"]
    assert len(doc["errors"]) == 1
    assert captured.err == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cap", "0"], "cap must be positive"),
        (["--seed", "-1"], "seed must be nonnegative"),
    ],
)
def test_cli_flags_follow_config_rules(flags, message, capsys):
    assert main(["solve", "--primes", "3"] + flags) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert main(["run", "--config", "corollary15.cfg"] + flags) == 2
    assert message in capsys.readouterr().err


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_linking_computes_each_pair_once(tmp_path, monkeypatch, capsys):
    from fibresum import linkgeom

    verified = _count_calls(monkeypatch, linkgeom, "linking_number_verified")
    crossings = _count_calls(monkeypatch, linkgeom, "linking_number_crossings")
    scans = _count_calls(monkeypatch, linkgeom, "_separation_squared")
    (tmp_path / "hopf.lnk").write_text(
        "0 0 0\n2 0 0\n2 2 0\n0 2 0\n\n1 1 1\n1 3 1\n1 3 -1\n1 1 -1\n"
    )
    assert main(["linking", "--link", str(tmp_path / "hopf.lnk"), "--output", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["pairwise_linking"] == [
        ["0", "1"],
        ["1", "0"],
    ]
    assert len(verified) == 1
    del verified[:], crossings[:], scans[:]
    # Three pairs of rings, then the axis against each ring; the relation
    # is read off those numbers, not counted again.
    assert main(["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"]) == 0
    assert "torus relation: (1, 1, 1)" in capsys.readouterr().out
    assert len(verified) == 6
    assert len(crossings) == 6
    # Disjointness of the three rings, then one scan for each count and
    # one for each Gauss guard.
    assert len(scans) <= 15


def test_linking_rejects_relation_for_linked_components(tmp_path, capsys):
    # A Hopf link plus one far square: three components, but the first two
    # link, so the meridians are no basis and no relation may be printed.
    (tmp_path / "hopf3.lnk").write_text(
        "0 0 0\n2 0 0\n2 2 0\n0 2 0\n\n"
        "1 1 1\n1 3 1\n1 3 -1\n1 1 -1\n\n"
        "50 50 0\n52 50 0\n52 52 0\n50 52 0\n"
    )
    (tmp_path / "axis.lnk").write_text("-5 -5 3\n5 -5 3\n5 5 3\n-5 5 3\n")
    argv = ["linking", "--link", str(tmp_path / "hopf3.lnk"), "--axis", str(tmp_path / "axis.lnk")]
    assert main(argv + ["--output", "machine"]) == 2
    doc = json.loads(capsys.readouterr().out)
    (task,) = doc["tasks"]
    assert "relation" not in task
    assert task["pairwise_linking"] == [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    assert len(task["axis_linking"]) == 3
    (error,) = doc["errors"]
    assert "meridians are not a basis" in error
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "torus relation: (" not in out
    assert "component 0:   0   1   0" in out


def test_invalid_recipe_in_config_exits_2_with_its_message(tmp_path, capsys):
    # Tx is symplectic, so its orientation cannot be flipped.
    (tmp_path / "bad.cfg").write_text(
        "[manifold T4]\nbuiltin = T4\n\n"
        "[recipe bad]\nmanifold = T4\nglue = Tx + -\n\n"
        "[task enumerate]\nrecipe = bad\n"
    )
    assert main(["run", "--config", str(tmp_path / "bad.cfg")]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'bad.cfg'}:6: recipe 'bad' is invalid: "
        "gluing along Tx: orientation not flippable (symplectic torus)\n"
    )


def test_parallel_copies_split_across_glue_lines_exit_2_at_the_second(tmp_path, capsys):
    # F declares no parallel copies, so a second single-copy line on it
    # asks for two copies, as `glue = F + +` does.
    (tmp_path / "split.cfg").write_text(
        "[manifold K]\neuler = 12\nsignature = -8\nb1 = 0\nb2 = 10\nbasis = F S\n"
        "c1 = 1 0\npairing_row = 0 1\npairing_row = 1 -1\nsimply_connected = true\n\n"
        "[torus F]\nmanifold = K\nclass = 1 0\nkind = lagrangian\n\n"
        "[recipe r]\nmanifold = K\nglue = F +\nglue = F +\n\n"
        "[task enumerate]\nrecipe = r\n"
    )
    assert main(["run", "--config", str(tmp_path / "split.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {tmp_path / 'split.cfg'}:20: recipe 'r' is invalid: "
        "gluing along F: 2 parallel copies requested but none declared available\n"
    )


def test_recipe_without_gluings_in_config_exits_2(tmp_path, capsys):
    (tmp_path / "empty.cfg").write_text(
        "[manifold T4]\nbuiltin = T4\n\n"
        "[recipe x]\nmanifold = T4\n\n"
        "[task enumerate]\nrecipe = x\n"
    )
    assert main(["run", "--config", str(tmp_path / "empty.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'empty.cfg'}:4: recipe 'x' is invalid: no gluings\n"


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize(
    "flag, value",
    [("cap", "1" + "0" * INT_DIGITS), ("seed", "1" + "0" * INT_DIGITS), ("primes", "3,1" + "0" * INT_DIGITS)],
)
def test_an_integer_flag_past_the_digit_limit_exits_2_at_its_flag(flag, value, capsys):
    argv = ["solve", "--primes", "3,5"] if flag != "primes" else ["solve"]
    assert main([*argv, f"--{flag}", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --{flag}: {flag}: integer too long ({INT_DIGITS + 1} digits)\n"
    assert captured.out == ""


@pytest.mark.parametrize("output, renderer", [("machine", "render_machine"), ("table", "render_table")])
def test_a_report_too_large_for_memory_exits_2(output, renderer, monkeypatch, capsys):
    from fibresum.theoremreport import TheoremReportBuilder

    def out_of_memory(self):
        raise MemoryError

    monkeypatch.setattr(TheoremReportBuilder, renderer, out_of_memory)
    assert main(["solve", "--primes", "3,5", "--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory while writing the report\n"


def test_cli_solve_rejects_a_non_integer_prime(capsys):
    assert main(["solve", "--primes", "3,x"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --primes: primes: expected an integer, got 'x'\n"
    assert captured.out == ""


def test_cli_linking_unreadable_link_file_exits_2(tmp_path, capsys):
    assert main(["linking", "--link", str(tmp_path), "--output", "machine"]) == 2
    doc = json.loads(capsys.readouterr().out)
    (error,) = doc["errors"]
    assert error.startswith(f"<args>: bad link file {tmp_path}: ")
    assert doc["tasks"] == []


@pytest.mark.parametrize(
    "text, argv",
    [
        ("[task linking]\nlink =\n", ["run"]),
        ("[task linking]\nlink = borromean.lnk\naxis =\n", ["run"]),
        (None, ["linking", "--link", "borromean.lnk", "--axis", ""]),
    ],
)
def test_an_empty_file_name_is_rejected(text, argv, tmp_path, capsys):
    # An empty name would resolve to the directory names are read from.
    # File names resolve when the config loads, so the error names the
    # empty key's flag, or its line: the text's last.
    where = "--axis"
    if text is not None:
        source = tmp_path / "empty.cfg"
        source.write_text(text)
        argv = argv + ["--config", str(source)]
        where = f"{source}:{text.count(chr(10))}"
    assert main(argv + ["--output", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: expected a file name, got an empty value\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("[task linking]\nlink = missing.lnk\n", 2),
        ("[task linking]\nlink = borromean.lnk\naxis = missing.lnk\n", 3),
    ],
    ids=["link", "axis"],
)
def test_a_missing_file_in_a_config_names_its_line(text, line, tmp_path, capsys):
    path = tmp_path / "nolink.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{line}: file not found: missing.lnk\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--link", "missing.lnk"], "--link"),
        (["--link", "borromean.lnk", "--axis", "missing.lnk"], "--axis"),
    ],
    ids=["link", "axis"],
)
def test_a_missing_file_flag_is_named_before_any_task_runs(argv, flag, capsys):
    assert main(["linking", *argv, "--output", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: file not found: missing.lnk\n"


# Each command line beside the config text that it spells.
SPELLED = [
    (["solve", "--primes", "3,5"], "[task solve]\nprimes = 3,5\n"),
    (
        ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk", "--seed", "3", "--cap", "7"],
        "seed = 3\ncap = 7\n[task linking]\nlink = borromean.lnk\naxis = axis.lnk\n",
    ),
]


@pytest.mark.parametrize("output", ["table", "machine"])
@pytest.mark.parametrize("argv, text", SPELLED, ids=[argv[0] for argv, _ in SPELLED])
def test_a_command_line_is_the_config_it_spells(argv, text, output, tmp_path, capsys):
    assert main(argv + ["--output", output]) == 0
    from_flags = capsys.readouterr()
    path = tmp_path / "spelled.cfg"
    path.write_text(f"output = {output}\n" + text)
    assert main([argv[0], "--config", str(path)]) == 0
    assert capsys.readouterr() == from_flags
    assert from_flags.err == ""


def test_tasks_hold_what_their_config_resolved(tmp_path):
    # A task keeps the records and files that its config named, so a run
    # looks none of them up again: not in the config's tables, and not
    # in the directory that the file names were resolved against.
    for name in ("borromean16.lnk", "borromean16-axis.lnk"):
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    linking = tmp_path / "linking.cfg"
    linking.write_text("[task linking]\nlink = borromean16.lnk\naxis = borromean16-axis.lnk\n")
    for path, golden in ((GOLDEN / "build.cfg", "build.json"), (linking, "borromean16_linking.json")):
        config = parse_config(path)
        config.output_format = "machine"
        config.manifolds.clear()
        config.recipes.clear()
        config.base_dir = tmp_path / "elsewhere"
        out = io.StringIO()
        assert run(config, stream=out) == 0
        assert out.getvalue().encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_a_config_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeffseed = 4\n[task solve]\nprimes = 3\n", encoding="utf-8")
    config = parse_config(path)
    assert config.seed == 4
    assert [task.primes for task in config.tasks] == [(3,)]


def test_cli_linking_coordinate_outside_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "far.lnk"
    path.write_text("0 0 0\n1e400 0 0\n0 1 0\n\n5 5 5\n6 5 5\n5 6 5\n")
    assert main(["linking", "--link", str(path), "--output", "machine"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["errors"] == [
        f"<args>: bad link file {path}: line 2: coordinate 1e400 has an exponent outside float range"
    ]
    assert doc["tasks"] == []


def test_cli_linking_reads_the_axis_file_before_any_linking_number(
    tmp_path, monkeypatch, capsys
):
    from fibresum import linkgeom

    verified = _count_calls(monkeypatch, linkgeom, "linking_number_verified")
    argv = ["linking", "--link", "borromean.lnk", "--axis", str(tmp_path), "--output", "machine"]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    (error,) = doc["errors"]
    assert error.startswith(f"<args>: bad axis file {tmp_path}: ")
    assert verified == []


def test_cli_linking_rejects_an_axis_file_with_two_curves(tmp_path, monkeypatch, capsys):
    from fibresum import linkgeom

    # Two far-apart squares: the second curve must not be silently dropped.
    (tmp_path / "axes.lnk").write_text(
        "40 40 0\n42 40 0\n42 42 0\n40 42 0\n\n50 50 0\n52 50 0\n52 52 0\n50 52 0\n"
    )
    verified = _count_calls(monkeypatch, linkgeom, "linking_number_verified")
    axis = str(tmp_path / "axes.lnk")
    argv = ["linking", "--link", "borromean.lnk", "--axis", axis, "--output", "machine"]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    (error,) = doc["errors"]
    assert error == f"<args>: bad axis file {axis}: expected one curve, got 2"
    assert doc["tasks"] == []
    assert verified == []


def test_failing_forms_are_named_by_index_and_profile(monkeypatch, capsys):
    # Bumping c1 by the dual class Ux makes <c1, Tx> and <c1, Tw> odd
    # against square-zero tori on the corrupted forms only.
    from fibresum import construct
    from fibresum.intlat import IntVector
    from fixtures import replace

    original = construct.enumerate_forms

    def corrupted(recipe, **kwargs):
        result = original(recipe, **kwargs)
        bump = IntVector((0, 0, 0, 1, 0, 0))
        forms = tuple(
            replace(f, c1=f.c1 + bump) if i in (1, 3) else f for i, f in enumerate(result.forms)
        )
        return replace(result, forms=forms)

    monkeypatch.setattr(construct, "enumerate_forms", corrupted)
    assert main(["enumerate", "--config", "corollary15.cfg", "--output", "machine"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["forms"]) == 4
    assert doc["errors"] == ["mathematical inconsistency: c1 identity check failed"]
    expected = set()
    for i, profile in ((1, "Tz +1 Tx +1 Ty -1 Tw +2"), (3, "Tz -1 Tx +1 Ty -1 Tw +2")):
        for torus in ("Tx", "Tw"):
            expected.add(
                f"cor15 form {i} profile {profile}: characteristic parity fails on {torus}: "
                f"<c1, {torus}> = 1, <{torus}, {torus}> = 0"
            )
    failed = {c["check"] for c in doc["checks"] if c["status"] == "fail"}
    assert failed == expected | {"cor15: c1 identities over all forms"}
    grouped = {c["check"]: c["detail"] for c in doc["checks"] if "detail" in c}
    assert grouped["cor15: parity of <c1, Tx>"] == "2 of 4 forms"
    assert grouped["cor15: parity of <c1, Ty>"] == "4 of 4 forms"


def test_enumerate_tasks_slice_forms_and_failures_use_the_forms_index(monkeypatch, capsys):
    # build.cfg enumerates two recipes; corrupt the second recipe's form 1
    # as above, so its failures must name it by its index in forms[].
    from fibresum import construct
    from fibresum.intlat import IntVector
    from fixtures import replace

    original = construct.enumerate_forms

    def corrupted(recipe, **kwargs):
        result = original(recipe, **kwargs)
        if recipe.name != "mixed":
            return result
        bump = IntVector((0, 0, 0, 1, 0, 0))
        forms = tuple(replace(f, c1=f.c1 + bump) if i == 1 else f for i, f in enumerate(result.forms))
        return replace(result, forms=forms)

    monkeypatch.setattr(construct, "enumerate_forms", corrupted)
    assert main(["run", "--config", str(GOLDEN / "build.cfg"), "--output", "machine"]) == 3
    doc = json.loads(capsys.readouterr().out)
    tasks = [t for t in doc["tasks"] if t["task"] == "enumerate"]
    assert [t["name"] for t in tasks] == ["fibres", "mixed"]
    ranges = [tuple(int(i) for i in t["form_range"]) for t in tasks]
    assert ranges == [(0, 3), (3, len(doc["forms"]))]
    assert len(doc["forms"]) > 4
    failed = {c["check"] for c in doc["checks"] if c["status"] == "fail"}
    failed.discard("mixed: c1 identities over all forms")
    assert failed
    assert all(f.startswith("mixed form 4 profile Tz +3 Tx +1 Ty -1 Tw +2: ") for f in failed)


@pytest.mark.parametrize("copies", [2, 6])
def test_check_entries_do_not_grow_with_the_forms(copies, tmp_path, capsys):
    (tmp_path / "t4.cfg").write_text(
        "[manifold T4]\nbuiltin = T4\n\n[recipe r]\nmanifold = T4\nglue = Tx +\nglue = Ty +\n"
        f"glue = Tz {' '.join('+' * copies)}\nglue = Tw +\n\n[task enumerate]\nrecipe = r\n"
    )
    assert main(["enumerate", "--config", str(tmp_path / "t4.cfg"), "--output", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    forms = 2 * (copies + 1)
    assert len(doc["forms"]) == forms
    # Three torus classes, the diagonal torus, three skipped dual classes,
    # the square identity, and the summary over all forms.
    assert len(doc["checks"]) == 9
    assert all(c["detail"] == f"{forms} of {forms} forms" for c in doc["checks"][:8])


def test_check_entries_count_forms_not_messages():
    from types import SimpleNamespace

    from fibresum.gompfsum import CheckReport
    from fibresum.theoremreport import TheoremReportBuilder

    # A basis label and an extra class may share a name with different
    # vectors, so one form can report a message twice.
    layout = (("Tz", 2),)
    forms = [SimpleNamespace(layout=layout, profile=(2,)), SimpleNamespace(layout=layout, profile=(1,))]
    reports = [CheckReport(("a", "a"), (), ("s",)), CheckReport(("a",), ("bad",), ())]
    builder = TheoremReportBuilder(seed=0, cap=0)
    builder.add_form_checks("r", forms, reports)
    assert builder.checks == [
        {"check": "r: a", "status": "pass", "detail": "2 of 2 forms"},
        {"check": "r: s", "status": "skipped", "detail": "1 of 2 forms"},
        {"check": "r form 1 profile Tz +1-1: bad", "status": "fail"},
    ]


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    import os

    # `run --config` leaving the geometry unloaded is checked by the test
    # below; it needs an interpreter where no linking job ran.
    script = """
import sys

import fibresum


def loaded(*names):
    return [name for name in names if f"fibresum.{name}" in sys.modules]


assert [m for m in sys.modules if m.startswith("fibresum.")] == [], "on import"
from fibresum.cli import main

# A linking job loads neither the lattice layer nor the theorem sections
# of the report, with or without an axis.
assert main(["linking", "--link", "borromean.lnk"]) == 0
assert loaded("construct", "fourman", "gompfsum", "config", "intlat", "theoremreport") == [], "linking"
assert main(["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"]) == 0
assert loaded("construct", "fourman", "gompfsum", "config", "intlat", "theoremreport") == [], "--axis"
assert main(["solve", "--primes", "3,5"]) == 0
assert loaded("config") == [], "solve"
print("import check done", file=sys.stderr)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "import check done" in proc.stderr
    # A cold `python -m fibresum` run of each command reads its command
    # line without argparse, and so without gettext or locale.
    cold = """
import runpy
import sys

try:
    runpy.run_module("fibresum", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
loaded = [name for name in ("argparse", "gettext", "locale") if name in sys.modules]
assert loaded == [], loaded
print("cold run done", file=sys.stderr)
"""
    for argv in (
        ["verify", "--config", "corollary15.cfg"],
        ["build", "--config", str(GOLDEN / "build.cfg")],
        ["enumerate", "--config", "corollary15.cfg"],
        ["run", "--config", "corollary15.cfg"],
        ["solve", "--primes", "3,5"],
        ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", cold, *argv], cwd=tmp_path, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "cold run done" in proc.stderr, argv


def test_jobs_without_geometry_do_not_import_linkgeom(tmp_path):
    import os

    script = f"""
import sys

import fibresum
from fibresum.cli import main

for argv in (
    ["run", "--config", "corollary15.cfg"],
    ["run", "--config", {str(GOLDEN / "wide3.cfg")!r}],
    ["solve", "--primes", "3,5"],
):
    assert main(argv) == 0, argv
assert "fibresum.linkgeom" not in sys.modules
assert "linking_number_verified" in dir(fibresum)
assert fibresum.linking_number_verified.__module__ == "fibresum.linkgeom"
try:
    fibresum.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
namespace = {{}}
exec("from fibresum import *", namespace)
assert namespace["linking_number_verified"] is fibresum.linkgeom.linking_number_verified
print("import check done", file=sys.stderr)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "import check done" in proc.stderr
