import io

import pytest

from rmenum.cli import main
from rmenum.oracle import brute_force_distribution
from rmenum.wenum import distribution_text, read_distribution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_brute_writes_expected_file(tmp_path, capsys):
    out = tmp_path / "r13.txt"
    code, stdout, _ = run(capsys, "brute", "--r", "1", "--m", "3", "--out", str(out))
    assert code == 0
    assert "total 16 = 2^4 ok" in stdout
    lines = out.read_text().splitlines()
    assert "0 1" in lines and "4 14" in lines and "8 1" in lines


def test_brute_stdout_round_trips(tmp_path, capsys):
    code, stdout, _ = run(capsys, "brute", "--r", "2", "--m", "5")
    assert code == 0
    assert "2^16" in stdout
    dist_lines = [ln for ln in stdout.splitlines() if not ln.startswith("total")]
    assert read_distribution(io.StringIO("\n".join(dist_lines))) == brute_force_distribution(2, 5)


def test_brute_cap_error(capsys):
    code, _, stderr = run(capsys, "brute", "--r", "3", "--m", "8")
    assert code == 2
    assert "exceeds the cap" in stderr


def test_brute_takes_no_jobs(capsys):
    # the sweep is serial; argparse refuses the option itself
    with pytest.raises(SystemExit) as exc:
        main(["brute", "--r", "2", "--m", "5", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_brute_rejects_jobs_below_one(capsys, jobs):
    # values once refused by the jobs check are now refused with the option
    with pytest.raises(SystemExit) as exc:
        main(["brute", "--r", "2", "--m", "5", "--jobs", jobs])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert f"unrecognized arguments: --jobs {jobs}" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("m", ["17", "40"])
def test_brute_refuses_m_past_max_m(capsys, m):
    # --m 40 once asked for a 2**40-bit int and died with a MemoryError traceback
    code, _, stderr = run(capsys, "brute", "--r", "0", "--m", m)
    assert code == 2
    assert stderr == f"error: m={m} out of range 0..16\n"


def test_brute_refuses_a_negative_m_by_name(capsys):
    # --m -1 once printed "error: n must be a non-negative integer"
    code, _, stderr = run(capsys, "brute", "--r", "0", "--m", "-1")
    assert code == 2
    assert stderr == "error: m=-1 out of range 0..16\n"
    assert "Traceback" not in stderr


def test_coset_prints_polynomials(capsys):
    code, stdout, _ = run(capsys, "coset", "--anf", "0", "--r", "1", "--m", "3")
    assert code == 0
    assert stdout.strip() == "1 + 14z^4 + z^8"

    code, stdout, _ = run(capsys, "coset", "--anf", "12+34", "--r", "1", "--m", "4")
    assert code == 0
    assert stdout.strip() == "16z^6 + 16z^10"


def test_coset_rejects_malformed_anf(capsys):
    code, _, stderr = run(capsys, "coset", "--anf", "12+12", "--r", "1", "--m", "4")
    assert code == 2
    assert "12" in stderr  # names the offending token


def test_coset_out_file_round_trips(tmp_path, capsys):
    out = tmp_path / "coset.txt"
    code, _, _ = run(
        capsys, "coset", "--anf", "12+34", "--r", "1", "--m", "4", "--out", str(out)
    )
    assert code == 0
    got = read_distribution(str(out))
    assert got.nonzero_items() == [(6, 16), (10, 16)]


def test_classify_deterministic_output(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
    assert run(capsys, "classify", "--d", "2", "--m", "4", "--out", str(a))[0] == 0
    assert run(capsys, "classify", "--d", "2", "--m", "4", "--out", str(b))[0] == 0
    assert run(capsys, "classify", "--d", "2", "--m", "4", "--seed", "5", "--out", str(c))[0] == 0
    assert a.read_text() == b.read_text()
    assert "# seed 5" in c.read_text()


def test_classify_refuses_degree_zero(tmp_path, capsys):
    out = tmp_path / "d0.txt"
    code, _, err = run(capsys, "classify", "--d", "0", "--m", "3", "--out", str(out))
    assert code == 2
    assert "--d must be at least 1, got 0" in err
    assert not out.exists()


def test_pipeline_matches_brute_data(tmp_path, capsys):
    pipe = tmp_path / "pipe.txt"
    code, stdout, _ = run(
        capsys, "pipeline", "--r", "3", "--m", "5", "--out", str(pipe)
    )
    assert code == 0
    assert "multiplications" in stdout
    got = read_distribution(str(pipe))
    assert got == brute_force_distribution(3, 5)
    assert "# seed 0" in pipe.read_text()


def test_pipeline_fourier_route_counts_big_int_squarings(capsys):
    code, stdout, _ = run(capsys, "pipeline", "--r", "3", "--m", "7")
    assert code == 0
    assert "22 big-int multiplications (squarings, Fourier route)" in stdout
    assert "polynomial multiplications" not in stdout


def test_pipeline_class_sum_counts_polynomial_multiplications(capsys):
    code, stdout, _ = run(capsys, "pipeline", "--r", "3", "--m", "5", "--strategy", "direct")
    assert code == 0
    assert "polynomial multiplications" in stdout
    assert "Fourier" not in stdout


def test_pipeline_strategies_byte_identical(tmp_path, capsys):
    a = tmp_path / "blocks.txt"
    b = tmp_path / "direct.txt"
    run(capsys, "pipeline", "--r", "2", "--m", "5", "--out", str(a))
    run(capsys, "pipeline", "--r", "2", "--m", "5", "--strategy", "direct", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_with_classes_file(tmp_path, capsys):
    cls = tmp_path / "cls.txt"
    out = tmp_path / "dist.txt"
    assert run(capsys, "classify", "--d", "3", "--m", "4", "--out", str(cls))[0] == 0
    code, _, _ = run(
        capsys, "pipeline", "--r", "3", "--m", "5", "--classes", str(cls), "--out", str(out)
    )
    assert code == 0
    assert read_distribution(str(out)) == brute_force_distribution(3, 5)

    # wrong-parameter classes file is refused
    code, _, stderr = run(
        capsys, "pipeline", "--r", "2", "--m", "5", "--classes", str(cls), "--out", str(out)
    )
    assert code == 2
    assert "expected" in stderr


def test_verify_pass_and_fail(tmp_path, capsys):
    dist = tmp_path / "r25.txt"
    dist.write_text(distribution_text(brute_force_distribution(2, 5)))
    code, stdout, _ = run(capsys, "verify", "--dist", str(dist), "--r", "2", "--m", "5")
    assert code == 0
    assert all(line.startswith("PASS") for line in stdout.strip().splitlines())

    truncated = tmp_path / "bad.txt"
    lines = distribution_text(brute_force_distribution(2, 5)).splitlines()
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    code, stdout, _ = run(capsys, "verify", "--dist", str(truncated), "--r", "2", "--m", "5")
    assert code == 1
    assert any(line.startswith("FAIL") for line in stdout.splitlines())


def test_equiv_prints_matrix_and_verifies(capsys):
    code, stdout, _ = run(capsys, "equiv", "--e1", "123", "--e2", "145", "--m", "5")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 6  # five bit rows plus the verdict
    assert all(set(row) <= {"0", "1"} for row in lines[:5])
    assert lines[-1] == "PASS (e1 o A) + e2 has degree below 3"


def test_equiv_not_equivalent(capsys):
    code, stdout, stderr = run(capsys, "equiv", "--e1", "123", "--e2", "123+145", "--m", "5")
    assert code == 1 and stderr == ""
    assert stdout == "not equivalent: the degree-3 parts lie in different GL(5,2) classes\n"


def test_equiv_answers_a_linear_form_against_zero_at_once(capsys):
    # x1 and 0 lie in different classes of H^(1)(3): a lookup, not 10**7 tries
    code, stdout, _ = run(capsys, "equiv", "--e1", "1", "--e2", "0", "--m", "3")
    assert code == 1
    assert stdout.startswith("not equivalent")


def test_equiv_of_two_zero_forms_says_the_sum_is_zero(capsys):
    # both forms have degree 0, where "degree below 0" would name no degree
    code, stdout, _ = run(capsys, "equiv", "--e1", "0", "--e2", "0", "--m", "3")
    assert code == 0
    assert stdout.splitlines()[-1] == "PASS (e1 o A) + e2 is zero"


def test_equiv_refuses_a_space_past_the_cap(monkeypatch, capsys):
    import rmenum.classify as classify

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure ran before the cap check")

    monkeypatch.setattr(classify, "_close_orbits", forbidden)
    code, stdout, stderr = run(capsys, "equiv", "--e1", "123", "--e2", "145", "--m", "7")
    assert code == 2 and stdout == ""
    assert stderr == "error: H^(3)(7) has 2**35 forms, past the cap of 2**25\n"


@pytest.mark.parametrize("option", ["--budget", "--seed", "--progress"])
def test_equiv_has_no_search_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--e1", "123", "--e2", "145", "--m", "5", option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_dualcheck(capsys):
    code, stdout, _ = run(capsys, "dualcheck")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("row, fields", [("5", 1), ("5 1234 1235", 3)], ids=["count", "no-matrix"])
def test_dualcheck_refuses_a_short_row(tmp_path, capsys, row, fields):
    # a row needs a count, a source, a target and 7 matrix rows; a short one
    # is an error that names its line, not a traceback
    table = tmp_path / "table.txt"
    table.write_text(f"# a table with one short row\n\n{row}\n")
    code, stdout, err = run(capsys, "dualcheck", "--table", str(table))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: line 3 {row!r} has {fields} of the 10 fields: ")
    assert err.count("\n") == 1


def test_strict_integers_are_errors_not_tracebacks(tmp_path, capsys):
    # int() would read "1_4" as 14 and "0_3" as 3
    dist = tmp_path / "r13.txt"
    dist.write_text("# n 8\n0 1\n4 1_4\n8 1\n")
    code, _, err = run(capsys, "verify", "--dist", str(dist), "--r", "1", "--m", "3")
    assert code == 2 and err == "error: '1_4' is not an ASCII decimal integer\n"
    classes = tmp_path / "classes.txt"
    classes.write_text("# d 2\n# m 3\nclass 0 rep 0 size 0_3\n")
    code, _, err = run(capsys, "pipeline", "--r", "2", "--m", "4", "--classes", str(classes))
    assert code == 2 and err == "error: '0_3' is not an ASCII decimal integer\n"


def test_pipeline_jobs_byte_identical(tmp_path, capsys):
    files = []
    for jobs in ("1", "3"):
        path = tmp_path / f"j{jobs}.txt"
        run(capsys, "pipeline", "--r", "2", "--m", "5", "--jobs", jobs, "--out", str(path))
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_checkpoint_resume_via_cli(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "pipeline", "--r", "3", "--m", "5", "--checkpoint", str(ckpt), "--out", str(out1))
    code, stdout, _ = run(
        capsys, "pipeline", "--r", "3", "--m", "5", "--checkpoint", str(ckpt), "--out", str(out2)
    )
    assert code == 0
    assert "0 big-int multiplications (squarings, Fourier route)" in stdout
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
