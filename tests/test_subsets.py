import os
import resource
import subprocess
import sys

import pytest

from caplearn import Capacity, DomainError, Scale
from caplearn.subsets import (
    MAX_CRITERIA,
    add_one_bit,
    check_criteria_count,
    complement,
    drop_one_bit,
    full_mask,
    members,
    subset_label,
)


def test_members_roundtrip():
    for mask in range(1 << 4):
        assert sum(1 << (i - 1) for i in members(mask)) == mask


def test_members_are_one_based():
    assert members(0b101) == (1, 3)
    assert subset_label(0b101) == "{1,3}"
    assert subset_label(0) == "{}"


def test_complement_and_full_mask():
    assert complement(0b011, 3) == 0b100
    assert full_mask(3) == 0b111


def test_drop_and_add_one_bit():
    assert sorted(drop_one_bit(0b111)) == [0b011, 0b101, 0b110]
    assert sorted(add_one_bit(0b001, 3)) == [0b011, 0b101]
    assert list(add_one_bit(full_mask(3), 3)) == []


def test_criteria_count_bounds():
    check_criteria_count(1)
    check_criteria_count(MAX_CRITERIA)
    with pytest.raises(DomainError):
        check_criteria_count(0)
    with pytest.raises(DomainError):
        check_criteria_count(MAX_CRITERIA + 1)
    # a bool is an int to isinstance, but not a count
    with pytest.raises(DomainError, match="got True"):
        check_criteria_count(True)


def test_mask_range_checked():
    mu = Capacity(1, Scale.unit_interval(), (0.0, 1.0))
    assert mu[1] == 1.0
    # a bool is an int to isinstance, but not a subset
    for mask in (2, -1, True, False, 1.0):
        with pytest.raises(DomainError):
            mu[mask]


def test_negative_mask_is_refused():
    # a negative mask once made members() loop until memory ran out: run the
    # calls in a child capped in memory and time, so a regression fails here
    script = (
        "from caplearn import DomainError\n"
        "from caplearn.subsets import members, subset_label\n"
        "for f in (members, subset_label):\n"
        "    try:\n"
        "        f(-1)\n"
        "    except DomainError as exc:\n"
        "        print(exc)\n"
    )
    cap = 1 << 29
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, encoding="utf-8", timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (child.returncode, child.stdout) == (0, "subset mask -1 is negative\n" * 2), child.stderr
