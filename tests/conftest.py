"""Test-suite settings: one Hypothesis profile, derandomized and bounded, and a
guard on the groups every test shares.

Each property test draws the same examples on every run, so the suite stays
deterministic and its running time fixed.  T*, O* and I* and the B4 model's
Q8, Q16 and T* are built once per process, so a test that patches one of
their operations must undo it (`monkeypatch`); the guard fails the test that
does not.
"""

import pytest
from hypothesis import settings

from lowk.b4 import build_b4
from lowk.groups import build_binary_polyhedral

settings.register_profile(
    "lowk", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("lowk")

_OPERATIONS = ("mul", "inv", "order_of")


@pytest.fixture(scope="session")
def shared_group_operations():
    """Each shared group with the operations its builder gave it."""
    spec = build_b4().spec
    groups = [build_binary_polyhedral(kind) for kind in ("T*", "O*", "I*")]
    groups += [spec.core, *spec.factors]
    return [(group, {name: vars(group)[name] for name in _OPERATIONS})
            for group in dict.fromkeys(groups)]


@pytest.fixture(autouse=True)
def shared_groups_stay_unpatched(shared_group_operations):
    """Fail the test that leaves a shared group's operation replaced, and put
    the operation back so that later tests run on the real group."""
    yield
    patched = []
    for group, operations in shared_group_operations:
        for name, operation in operations.items():
            if vars(group).get(name) is not operation:
                patched.append(f"{group.name}.{name}")
                setattr(group, name, operation)
    if patched:
        pytest.fail("shared groups left patched: " + ", ".join(patched))
