"""Tests of the benchmark's own parts: job generator, oracles, spans, counting."""

import io
from contextlib import redirect_stdout

import pytest

import measure
import oracles
import run
import spans
import workloads


def cli_output(*argv):
    cli = pytest.importorskip("divgap.cli")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    assert code == 0
    return buf.getvalue()


# --- generator ---


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_repeats_for_a_seed(name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    assert workloads.generate(name, 8) != first
    assert len(first) >= 20  # a tail percentile needs ten jobs beyond it


def test_paired_draws_stay_in_range_and_pair_up():
    import random

    xs = workloads.paired_draws(random.Random(1), 1000, 5000, 4)
    assert len(xs) == 8 and all(1000 <= x <= 5000 for x in xs)
    for k in range(4):
        assert abs(xs[2 * k] + xs[2 * k + 1] - 2 * (1000 + 1000 * k + 500)) <= 1


def test_survivors_always_reach_the_top_of_the_range():
    for seed in range(5):
        corner = [j for j in workloads.generate("survivors", seed)
                  if j.params["algo"] == "all" and j.params["n"] == 10**6]
        assert [j.params["q"] for j in corner] == [2]


# --- oracles: the real output passes, a corrupted one fails ---


def test_survivor_fold_matches_the_naive_fold():
    for q in range(2, 8):
        pos = 0
        for n in range(2, 1500):
            pos = (pos + q) % n
            assert oracles.survivor(n, q) == pos + 1


def test_flipped_certified_digit_is_rejected():
    out = cli_output("constants", "c", "--terms", "1000")
    assert oracles.check_constant(out, "c", 1000) is None
    for place in (5, 100):  # inside PAPER.md's 34 places, and beyond them
        i = 2 + place - 1
        bad = out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]
        assert oracles.check_constant(bad, "c", 1000) is not None


def test_flipped_k3_digit_is_rejected():
    out = cli_output("constants", "k3", "--terms", "1200")
    assert oracles.check_constant(out, "k3", 1200) is None
    bad = out[:60] + str((int(out[60]) + 1) % 10) + out[61:]
    assert oracles.check_constant(bad, "k3", 1200) is not None


def test_off_by_one_survivor_is_rejected():
    for q in (2, 5):
        out = cli_output("josephus", "--n", "1000", "--q", str(q), "--algo", "all")
        assert oracles.check_josephus(out, 1000, q, "all") is None
        s = oracles.survivor(1000, q)
        bad = out.replace(f"survivor={s} [simulation]", f"survivor={s + 1} [simulation]")
        assert oracles.check_josephus(bad, 1000, q, "all") is not None


def test_wrong_gap_exponent_is_rejected():
    out = cli_output("theorem", "--max", "12")
    assert oracles.check_theorem(out, 12, False) is None
    b12 = oracles.b_terms(12)[-1]
    bad = out.replace(f"n=12 gap=2^{b12}", f"n=12 gap=2^{b12 + 1}")
    assert oracles.check_theorem(bad, 12, False) is not None
    seq = cli_output("seq", "a", "--max", "12", "--bfile")
    assert oracles.check_seq_a(seq, 12) is None
    assert oracles.check_seq_a(seq.replace(f"12 {2**b12}", f"12 {2**(b12 + 1)}"), 12) is not None


def test_delta_and_divisors_agree_with_trial_division():
    m = 2 * 3 * 5 * 7 * 11 * 13 * 101
    out = cli_output("delta", str(m), "--above", "487")
    assert oracles.check_delta(out, m, 487, False) is None
    assert oracles.check_delta(out, m, None, False) is not None
    out = cli_output("divisors", str(m))
    assert oracles.check_divisors(out, m, False, False) is None
    assert oracles.check_divisors(out.replace(" 6 ", " "), m, False, False) is not None


def test_refusal_needs_its_exit_code_and_envelope():
    job = workloads.Job(("seq", "a", "--max", "51", "--json"), "refusal",
                        {"error": "ResourceLimit", "json": True})
    env = ('{"command": "seq a", "parameters": {}, "result": {"error": "ResourceLimit", '
           '"message": "m"}, "status": "error"}\n')
    assert oracles.check(job, 3, env, "error: m\n") is None
    assert oracles.check(job, 0, env, "error: m\n") is not None
    assert oracles.check(job, 3, env.replace('"error"}', '"ok"}'), "error: m\n") is not None
    assert oracles.check(job, 3, "", "error: m\n") is not None


# --- spans ---


def test_self_time_subtracts_direct_children_only():
    tree = [
        ["cli.run", 0.0, 10.0, None, 0],
        ["sequences.verify_theorem", 1.0, 9.0, 0, 0],
        ["divisors.delta_above", 2.0, 5.0, 1, 0],
        ["divisors.factorize", 3.0, 4.0, 2, 0],
        ["divisors.Factorization.multiply", 6.0, 8.0, 1, 0],
        ["cli.run", 10.0, 11.5, None, 1],
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 2.0, 1.0, 2.0, 1.5]
    metrics = spans.layer_metrics(tree, {})
    assert metrics["cli.self_s"] == 3.5
    assert metrics["divisors.self_s"] == 5.0
    assert metrics["divisors.delta_above.calls"] == 1
    assert metrics["divisors.Factorization.multiply.self_s"] == 2.0
    by_job = spans.self_time_by_job(tree, [("theorem",), ("delta",)])
    assert by_job[1] == {"argv": ["delta"], "self_s": {"cli.run": 1.5}}


def test_install_records_nested_calls_and_undoes_itself():
    cli = pytest.importorskip("divgap.cli")
    sequences = pytest.importorskip("divgap.sequences")
    original = sequences.delta_above
    rec = spans.SpanRecorder()
    uninstall = spans.install(rec)
    try:
        rec.job = 0
        measure.run_job(cli, ("theorem", "--max", "6"))
    finally:
        uninstall()
    assert sequences.delta_above is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "cli.run" and "sequences.verify_theorem" in names
    assert names.count("divisors.delta_above") == 4
    assert all(s[2] >= s[1] and s[4] == 0 for s in rec.spans)
    assert rec.counters["divisors.factorize.max_input_bits"] > 0


# --- counting ---


class FakeCli:
    """Answers seq b --max 7 correctly, except on the calls listed as wrong."""

    def __init__(self, wrong_calls):
        self.calls = 0
        self.wrong_calls = wrong_calls

    def run(self, argv):
        self.calls += 1
        last = 7 if self.calls in self.wrong_calls else 6
        print("\n".join(f"{i} {b}" for i, b in enumerate([1, 1, 1, 2, 3, 4, last], start=1)))
        return 0


def test_a_failing_job_counts_against_jobs_attempted():
    jobs = [workloads.Job(("seq", "b", "--max", "7"), "seq_small", {"which": "b"})] * 3
    cli = FakeCli(wrong_calls={2, 6})
    outputs = {}
    passes = [measure.run_pass(cli, jobs, outputs, ("lists",)) for _ in range(2)]
    attempted, failed, reasons = measure.count_failures(jobs, passes, outputs)
    assert (attempted, failed, len(reasons)) == (6, 2, 2)


def test_tail_percentile_keeps_ten_jobs_beyond_it():
    assert run.tail_percentile(21) == 50
    assert run.tail_percentile(127) == 90
    assert run.tail_percentile(274) == 95
    with pytest.raises(run.BenchError):
        run.tail_percentile(19)
