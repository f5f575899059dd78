"""Checking the closed-form information gradients against finite differences.

For the channel z = Mx + n with M = A G B, the gradients of the mutual
information with respect to each factor are simple products of the factors
with the conditional-mean error matrix E:

    decoding  A:  M E B^H G^H
    topology  G:  A^H M E B^H
    precoding B:  G^H A^H M E

Nothing here is taken on faith: every entry is compared against a central
finite difference of the information itself, combined into a complex
gradient with the library's conjugate-coordinate convention.
"""

import numpy as np

from codedflow import (
    EngineSpec,
    InputDistribution,
    WIRTINGER_SCALE,
    diamond_compact_system,
    mutual_information,
    seeded_diamond_symbols,
    verify_gradients,
)

np.set_printoptions(precision=5, suppress=True)

system = diamond_compact_system(seeded_diamond_symbols(seed=42))
dist = InputDistribution.qpsk(2)
spec = EngineSpec(method="quadrature", nodes=16)

mi = mutual_information(system.M, dist, spec)
print(f"information at the operating point: {mi.nats:.6f} nats = {mi.bits:.6f} bits")

report = verify_gradients(system, dist, spec)
print(f"\nfinite-difference step {report.step}, calibration factor {WIRTINGER_SCALE}")
for target in report.targets():
    disc = report.discrepancy(target)
    print(
        f"grad {target}: max |closed - oracle| = {disc['max_abs']:.2e}, "
        f"max relative = {disc['max_rel']:.2e} at entry {disc['entry']}"
    )
print("\nall identities within 1e-3:", report.passed(1e-3))

print("\nclosed-form topology gradient:")
print(report.closed["G"])
print("finite-difference oracle:")
print(report.oracles["G"])
