from nonrepcolor import reproduce


def test_passed_deadline_keeps_completed_rows():
    rows, aborted = reproduce.run("table1", -1.0)
    assert aborted
    assert [r["check"] for r in rows] == ["C4 row verifies with 4 colors"]
    assert all(r["pass"] for r in rows)


def test_small_lower_bound_and_p3_rows():
    """thm1 ends with P6's walk exhaustion, thm2 with rho(P3) = 2."""
    rows, aborted = reproduce.run("thm1")
    assert not aborted and rows[-1] == {
        "check": "P6 ⊆ C_n: no walk-nonrepetitive 3-coloring", "pass": True,
        "detail": "nodes=22; so sigma(C_n) >= 4 for every n >= 6"}
    rows, aborted = reproduce.run("thm2")
    assert not aborted and rows[-1]["check"] == "rho(P3) = 2"
    assert rows[-1]["pass"] and "3 ≤ n ≤ 21" in rows[-1]["detail"]
