"""Golden answers of the injective/projective checkers and verifiers.

Pins, for every case, what a caller or the command line sees: ``holds``,
``checked``, the universe string, SHA-256 hashes of the serialized
witnesses, counterexample and ``extra`` of each verdict, the number of maps
each factorization verifier tests, and the type and message of each
hypothesis failure.  Both sides of each dual pair run through the same
cases, so a change to shared code shows up on either side.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from homkit.cli import _payload_to_doc
from homkit.complexes import Complex, disk, sphere, zero_complex
from homkit.construct import (
    OracleHypothesisError,
    module_epi_precover,
    module_mono_preenvelope,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import IntMatrix, Zmod
from homkit.lifting import (
    dg_x_injective,
    dg_x_projective,
    x_injective_complex,
    x_injective_module,
    x_projective_complex,
    x_projective_module,
)
from homkit.modules import FpModule, ModuleMap
from homkit.xclass import ALL, FREE, ann, default_complex_universe, eps1_universe, module_universe

R4, R6 = Zmod(4), Zmod(6)
Z2, Z4, Z2Z4 = FpModule(R4, (2,)), FpModule(R4, (4,)), FpModule(R4, (2, 4))
W2, W3, W6 = FpModule(R6, (2,)), FpModule(R6, (3,)), FpModule(R6, (6,))
TIMES2 = Complex(R4, {0: Z4, 1: Z4}, {0: ModuleMap(Z4, Z4, IntMatrix.from_rows([[2]]))})

# the universe strings the verdicts name
U4_ALL = "modules(Z/4, size<=8), class=all"
U4_FREE = "modules(Z/4, size<=8), class=free"
U4_ANN2 = "modules(Z/4, size<=8), class=ann:2"
U6_ALL = "modules(Z/6, size<=8), class=all"
CU4_ALL = "complexes(Z/4, full<= 2 on [0, 1], disks/spheres<=4 at [-1, 0, 1]), class=all"
CU4_ANN2 = "complexes(Z/4, full<= 2 on [0, 1], disks/spheres<=4 at [-1, 0, 1]), class=ann:2"
CU6_ALL = "complexes(Z/6, full<= 3 on [0, 1], disks/spheres<=6 at [-1, 0, 1]), class=all"
EU4_ALL = "eps1(Z/4, class=all, base<=4, window=[-1, 1]); components over modules(Z/4, size<=8)"
EU4_ANN2 = "eps1(Z/4, class=ann:2, base<=4, window=[-1, 1]); components over modules(Z/4, size<=8)"
EU6_ALL = "eps1(Z/6, class=all, base<=4, window=[-1, 1]); components over modules(Z/6, size<=8)"
# Recorded from the separate injective and projective implementations that
# the shared drivers replaced.  Verdicts: (holds, checked, universe, hash of
# witnesses, hash of counterexample, hash of extra); verifiers: maps tested;
# failures: (type, message).
EXPECTED = {
    "inj-mod-z4": (True, 29, U4_ALL,
        "0d0d097893e2d78c", "74234e98afe7498f", "1ace218ed0ff8825"),
    "inj-mod-z2": (False, 2, U4_ALL,
        "c4a7540fbd64de72", "12c18ee6d8cfc39a", "83e6932039c6a958"),
    "inj-mod-z2z4": (False, 2, U4_ALL,
        "d25c68cc254fb77d", "83b5395aac1f5b9f", "83e6932039c6a958"),
    "inj-mod-z2-free": (True, 7, U4_FREE,
        "71ba8d9ff64629e7", "74234e98afe7498f", "1ace218ed0ff8825"),
    "inj-mod-z4-ann2": (True, 27, U4_ANN2,
        "4fa87a184d875bdb", "74234e98afe7498f", "1ace218ed0ff8825"),
    "inj-mod-w2": (True, 24, U6_ALL,
        "acc47d0672cf1fe8", "74234e98afe7498f", "1ace218ed0ff8825"),
    "inj-mod-w6": (True, 24, U6_ALL,
        "c19ec43bd6d12f1b", "74234e98afe7498f", "1ace218ed0ff8825"),
    "proj-mod-z4": (True, 29, U4_ALL,
        "9e5c07b7eab10e0f", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-mod-z2": (False, 2, U4_ALL,
        "ef642ace50fa8443", "2c31b1018c1fa354", "44136fa355b3678a"),
    "proj-mod-z2z4": (False, 2, U4_ALL,
        "0c226d62b14fba33", "b9a0700ae816cbbc", "44136fa355b3678a"),
    "proj-mod-z2-free": (True, 7, U4_FREE,
        "08ea0aa26c201780", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-mod-z4-ann2": (True, 27, U4_ANN2,
        "1406143bff5135b1", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-mod-w2": (True, 24, U6_ALL,
        "f6e0d5df1074c72a", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-mod-w6": (True, 24, U6_ALL,
        "7c282cc0360f671f", "74234e98afe7498f", "44136fa355b3678a"),
    "inj-cx-disk-z4": (True, 52, CU4_ALL,
        "148dc9b1ee95fb9f", "74234e98afe7498f", "44136fa355b3678a"),
    "inj-cx-sphere-z2": (False, 5, CU4_ALL,
        "2b73c7de96ad7844", "570bc064a34017da", "44136fa355b3678a"),
    "inj-cx-sphere-z4": (False, 5, CU4_ALL,
        "2b73c7de96ad7844", "c9a1539aa758a115", "44136fa355b3678a"),
    "inj-cx-times2": (False, 6, CU4_ALL,
        "e314bc6042d821ca", "a4f989a759d316f5", "44136fa355b3678a"),
    "inj-cx-sphere-z2-ann2": (False, 5, CU4_ANN2,
        "2b73c7de96ad7844", "570bc064a34017da", "44136fa355b3678a"),
    "inj-cx-zero": (True, 0, CU4_ALL,
        "4f53cda18c2baa0c", "74234e98afe7498f", "44136fa355b3678a"),
    "inj-cx-sphere-w2": (False, 14, CU6_ALL,
        "f2099f4f475bda27", "3a5de0fce222f33d", "44136fa355b3678a"),
    "inj-cx-disk-w3": (True, 77, CU6_ALL,
        "575f78937eb7fb3c", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-cx-disk-z4": (True, 52, CU4_ALL,
        "79feba3ea5251a34", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-cx-sphere-z2": (False, 4, CU4_ALL,
        "0f4e2c92ec3616bf", "d03416b3d0ea42a9", "44136fa355b3678a"),
    "proj-cx-sphere-z4": (False, 4, CU4_ALL,
        "0f4e2c92ec3616bf", "7b0d10527ad96487", "44136fa355b3678a"),
    "proj-cx-times2": (False, 6, CU4_ALL,
        "503ab2785bc8c529", "8fbffe17edd1ae86", "44136fa355b3678a"),
    "proj-cx-sphere-z2-ann2": (False, 4, CU4_ANN2,
        "0f4e2c92ec3616bf", "d03416b3d0ea42a9", "44136fa355b3678a"),
    "proj-cx-zero": (True, 0, CU4_ALL,
        "4f53cda18c2baa0c", "74234e98afe7498f", "44136fa355b3678a"),
    "proj-cx-sphere-w2": (False, 4, CU6_ALL,
        "fb7fb4b5472b2863", "c8f8f6dd0f0d041a", "44136fa355b3678a"),
    "proj-cx-disk-w3": (True, 77, CU6_ALL,
        "97599ef2bf549605", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-inj-sphere-z4": (True, 24, EU4_ALL,
        "74f59c1eddfe1218", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-inj-sphere-z2": (False, 1, EU4_ALL,
        "4f53cda18c2baa0c", "26d24cf5f6cce5cf", "44136fa355b3678a"),
    "dg-inj-disk-z4": (True, 25, EU4_ALL,
        "74f59c1eddfe1218", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-inj-times2": (True, 25, EU4_ALL,
        "74f59c1eddfe1218", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-inj-sphere-z2-ann2": (False, 1, EU4_ANN2,
        "4f53cda18c2baa0c", "26d24cf5f6cce5cf", "44136fa355b3678a"),
    "dg-inj-sphere-w2": (True, 23, EU6_ALL,
        "283e1a9c5423398f", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-proj-sphere-z4": (True, 24, EU4_ALL,
        "74f59c1eddfe1218", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-proj-sphere-z2": (False, 1, EU4_ALL,
        "4f53cda18c2baa0c", "ee533d9ee852b251", "44136fa355b3678a"),
    "dg-proj-disk-z4": (True, 25, EU4_ALL,
        "74f59c1eddfe1218", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-proj-times2": (True, 25, EU4_ALL,
        "74f59c1eddfe1218", "74234e98afe7498f", "44136fa355b3678a"),
    "dg-proj-sphere-z2-ann2": (False, 1, EU4_ANN2,
        "4f53cda18c2baa0c", "ee533d9ee852b251", "44136fa355b3678a"),
    "dg-proj-sphere-w2": (True, 23, EU6_ALL,
        "283e1a9c5423398f", "74234e98afe7498f", "44136fa355b3678a"),
    "precover-sphere-z2": 3,
    "preenvelope-sphere-z2": 3,
    "precover-times2": 9,
    "preenvelope-times2": 9,
    "precover-disk-z2": 5,
    "preenvelope-disk-z2": 5,
    "precover-sphere-w2": 22,
    "preenvelope-sphere-w2": 22,
    "cover-free": ("OracleHypothesisError", "no class-projective cover of Z/2 with class kernel in modules(Z/4, size<=8)"),
    "envelope-free": ("OracleHypothesisError", "no class-injective envelope of Z/2 with class cokernel in modules(Z/4, size<=8)"),
    "precover-free": ("OracleHypothesisError", "no class-projective cover of Z/2 with class kernel in modules(Z/4, size<=8)"),
    "preenvelope-free": ("OracleHypothesisError", "no class-injective envelope of Z/2 with class cokernel in modules(Z/4, size<=8)"),
}


def sha(value) -> str:
    text = json.dumps(_payload_to_doc(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_record(v) -> tuple:
    return (v.holds, v.checked, v.universe,
            sha(v.witnesses), sha(v.counterexample), sha(v.extra))


def verdict_cases() -> list:
    u4, u6 = module_universe(R4, 8), module_universe(R6, 8)
    cu4 = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=4)
    cu6 = default_complex_universe(R6, (0, 1), full_bound=3, disk_bound=6)
    eu4 = eps1_universe(R4, ALL, base_bound=4, window=(-1, 1))
    eu4a = eps1_universe(R4, ann(2), base_bound=4, window=(-1, 1))
    eu6 = eps1_universe(R6, ALL, base_bound=4, window=(-1, 1))
    out = []
    for side, fn in (("inj", x_injective_module), ("proj", x_projective_module)):
        for label, e, cls, u in (("z4", Z4, ALL, u4), ("z2", Z2, ALL, u4),
                                 ("z2z4", Z2Z4, ALL, u4), ("z2-free", Z2, FREE, u4),
                                 ("z4-ann2", Z4, ann(2), u4),
                                 ("w2", W2, ALL, u6), ("w6", W6, ALL, u6)):
            out.append((f"{side}-mod-{label}",
                        lambda fn=fn, e=e, cls=cls, u=u: fn(e, cls, u, keep_witnesses=True)))
    for side, fn in (("inj", x_injective_complex), ("proj", x_projective_complex)):
        for label, c, cls, cu in (("disk-z4", disk(0, Z4), ALL, cu4),
                                  ("sphere-z2", sphere(0, Z2), ALL, cu4),
                                  ("sphere-z4", sphere(0, Z4), ALL, cu4),
                                  ("times2", TIMES2, ALL, cu4),
                                  ("sphere-z2-ann2", sphere(0, Z2), ann(2), cu4),
                                  ("zero", zero_complex(R4), ALL, cu4),
                                  ("sphere-w2", sphere(0, W2), ALL, cu6),
                                  ("disk-w3", disk(0, W3), ALL, cu6)):
            out.append((f"{side}-cx-{label}",
                        lambda fn=fn, c=c, cls=cls, cu=cu: fn(c, cls, cu, keep_witnesses=True)))
    for side, fn in (("inj", dg_x_injective), ("proj", dg_x_projective)):
        for label, c, cls, eu, mu in (("sphere-z4", sphere(0, Z4), ALL, eu4, u4),
                                      ("sphere-z2", sphere(0, Z2), ALL, eu4, u4),
                                      ("disk-z4", disk(0, Z4), ALL, eu4, u4),
                                      ("times2", TIMES2, ALL, eu4, u4),
                                      ("sphere-z2-ann2", sphere(0, Z2), ann(2), eu4a, u4),
                                      ("sphere-w2", sphere(0, W2), ALL, eu6, u6)):
            out.append((f"dg-{side}-{label}",
                        lambda fn=fn, c=c, cls=cls, eu=eu, mu=mu:
                        fn(c, cls, eu, mu=mu, keep_witnesses=True)))
    return out


def factorization_cases() -> list:
    u4, u6 = module_universe(R4, 8), module_universe(R6, 8)
    out = []
    for label, y, u in (("sphere-z2", sphere(0, Z2), u4), ("times2", TIMES2, u4),
                        ("disk-z2", disk(0, Z2), u4), ("sphere-w2", sphere(0, W2), u6)):
        out.append((f"precover-{label}", lambda y=y, u=u: verify_precover_factorization(
            precover_bounded(y, ALL, u=u), y, ALL, u)))
        out.append((f"preenvelope-{label}", lambda y=y, u=u: verify_preenvelope_factorization(
            preenvelope_bounded(y, ALL, u=u), y, ALL, u)))
    return out


def error_cases() -> list:
    u4 = module_universe(R4, 8)
    return [("cover-free", lambda: module_epi_precover(Z2, FREE, u4)),
            ("envelope-free", lambda: module_mono_preenvelope(Z2, FREE, u4)),
            ("precover-free", lambda: precover_bounded(sphere(0, Z2), FREE, u=u4)),
            ("preenvelope-free", lambda: preenvelope_bounded(sphere(0, Z2), FREE, u=u4))]


def params(cases: list) -> list:
    return [pytest.param(name, run, id=name) for name, run in cases]


@pytest.mark.parametrize("name,run", params(verdict_cases()))
def test_verdict(name, run):
    assert verdict_record(run()) == EXPECTED[name]


@pytest.mark.parametrize("name,run", params(factorization_cases()))
def test_factorization_count(name, run):
    assert run() == EXPECTED[name]


@pytest.mark.parametrize("name,run", params(error_cases()))
def test_hypothesis_error(name, run):
    with pytest.raises(OracleHypothesisError) as info:
        run()
    assert (type(info.value).__name__, str(info.value)) == EXPECTED[name]
