"""The workload seed drives the inputs; a fixed seed repeats exactly.

These run a few real calls of the program (a few seconds in all).
"""

import pytest

import workloads


def _labels(name, seed):
    calls = workloads.build(name, seed).calls
    return ([c.label for c in calls if c.reference],
            [c.label for c in calls if not c.reference])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_the_inputs(name):
    reference, drawn = _labels(name, 0)
    assert (reference, drawn) == _labels(name, 0)
    other_reference, other_drawn = _labels(name, 1)
    assert reference and drawn
    assert reference == other_reference
    assert set(drawn).isdisjoint(other_drawn)
    assert set(drawn).isdisjoint(reference)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        workloads.build("ber_sweep", -1)


# Calls whose quality metrics are all defined on their own: city_block's
# last reference cell, and ber_sweep's 8 dB point (errors under both
# decoders).
def _probe_calls(name, seed):
    calls = workloads.build(name, seed).calls
    if name == "city_block":
        last = max(i for i, c in enumerate(calls) if c.reference)
        return calls[last], calls[-1]
    return calls[4], calls[5]


def _run(name, call):
    result = call.run()
    assert workloads.check(name, call, result) == []
    return result


@pytest.mark.parametrize("name", ["city_block", "ber_sweep"])
def test_fixed_seed_reproduces_results_exactly(name):
    def once(seed):
        reference, drawn = _probe_calls(name, seed)
        ref_result, drawn_result = _run(name, reference), _run(name, drawn)
        quality = workloads.quality(name, [reference, drawn],
                                    [ref_result, drawn_result])
        return workloads.digest(drawn_result), quality

    digest, quality = once(0)
    assert once(0) == (digest, quality)
    digest_other, quality_other = once(1)
    # The drawn call changes with the seed; the quality metrics, taken
    # from the reference call, do not.
    assert digest_other != digest
    assert quality_other == quality


def test_flow_conservation_check_catches_a_lost_packet():
    call = workloads.build("city_block", 0).calls[-1]
    result = call.run()
    flow = next(iter(result.flows.values()))
    flow.sent -= 1
    problems = workloads.check("city_block", call, result)
    assert problems and "offered" in problems[0]
