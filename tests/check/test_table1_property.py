"""Property: ``repro check`` is silent on every Table-1 synthesized design.

Synthesis artifacts are the analyzer's null hypothesis: a faithful
COMPACT design must satisfy the VH-labeling, alignment, reachability and
lower-bound rules by construction, so any finding here is a bug in
either the synthesizer or the analyzer.  Runs the fast suite (the
Table-1 tier-1 circuits) through Method A at gamma=1, and checks each
design again after a JSON round trip: its labels reload as strings,
and the certificate must not depend on that.
"""

from __future__ import annotations

import pytest

from repro.bench.suites import suite
from repro.check import check_design
from repro.core.compact import Compact
from repro.crossbar.serialize import design_from_json, design_to_json

FAST = suite("fast")


def assert_reload_agrees(design, cert):
    """The reloaded design is as clean and gets the same certificate."""
    diags = check_design(design_from_json(design_to_json(design)))
    findings = [d for d in diags if d.is_finding]
    assert findings == [], "\n".join(d.render() for d in findings)
    (reloaded,) = [d for d in diags if d.code in ("L001", "L003")]
    assert reloaded.code == cert.code
    for field in ("s_lb", "packing_lb"):
        assert reloaded.data[field] == cert.data[field]

    def packing(c):
        return [[str(node) for node in cycle] for cycle in c.data["packing"]]

    assert packing(reloaded) == packing(cert)


@pytest.mark.parametrize("bench", FAST, ids=[b.name for b in FAST])
def test_check_is_silent_on_synthesized_designs(bench):
    result = Compact(gamma=1.0, method="oct", time_limit=20).synthesize_netlist(
        bench.build()
    )
    diags = check_design(result.design)
    findings = [d for d in diags if d.is_finding]
    assert findings == [], "\n".join(d.render() for d in findings)
    # The certificate must be present and coherent for every design.
    (cert,) = [d for d in diags if d.code == "L001"]
    assert cert.data["s_lb"] <= result.design.semiperimeter
    assert cert.data["gap"] >= 0
    assert_reload_agrees(result.design, cert)


@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("bench", FAST, ids=[b.name for b in FAST])
def test_layered_certificate_holds_on_synthesized_designs(bench, layers):
    # Same null hypothesis, one dimension up: every 3D Table-1 design
    # must carry exactly one verified L003 certificate whose bound never
    # exceeds the achieved footprint semiperimeter.
    result = Compact(
        gamma=1.0, method="oct", time_limit=20, layers=layers
    ).synthesize_netlist(bench.build())
    diags = check_design(result.design)
    findings = [d for d in diags if d.is_finding]
    assert findings == [], "\n".join(d.render() for d in findings)
    (cert,) = [d for d in diags if d.code == "L003"]
    assert cert.data["layers"] == layers
    assert cert.data["s_lb"] <= cert.data["s_labeled"]
    assert cert.data["gap"] >= 0
    assert_reload_agrees(result.design, cert)
