from coxlehmer.report import MAX_WITNESSES, Report


def test_a_callable_witness_is_called_only_for_a_recorded_failure():
    calls = []

    def witness(k):
        return lambda: calls.append(k) or f"case {k}"

    rep = Report("lazy")
    assert rep.check(True, witness(0))
    assert calls == [] and rep.passed
    for k in range(1, MAX_WITNESSES + 3):
        assert not rep.check(False, witness(k))
    # past the cap a failure still counts, but its witness is never built
    assert calls == list(range(1, MAX_WITNESSES + 1))
    assert rep.witnesses == [f"case {k}" for k in range(1, MAX_WITNESSES + 1)]
    assert (rep.instances, rep.failures, rep.passed) == (1 + MAX_WITNESSES + 2,
                                                         MAX_WITNESSES + 2, False)


def test_string_and_callable_witnesses_read_alike():
    eager, lazy = Report("eager"), Report("lazy")
    eager.check(False, "at 2134")
    lazy.check(False, lambda: "at 2134")
    assert eager.to_json()["witnesses"] == lazy.to_json()["witnesses"] == ["at 2134"]


def test_passed_reads_the_failure_count():
    total, failing = Report("all"), Report("one")
    total.merge(Report("empty"))
    assert total.passed and total.to_json()["pass"] is True
    failing.check(False, "at 2134")
    total.merge(failing)
    assert (total.failures, total.passed, total.to_json()["pass"]) == (1, False, False)
    assert list(total.to_json()) == ["check", "pass", "instances", "failures", "witnesses", "notes"]
