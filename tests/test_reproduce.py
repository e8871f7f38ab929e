from nonrepcolor import reproduce


def test_passed_deadline_keeps_completed_rows():
    rows, aborted = reproduce.claim_table1(budget=-1.0)
    assert aborted
    assert [r["check"] for r in rows] == ["C4 row verifies with 4 colors"]
    assert all(r["pass"] for r in rows)
