"""Sparse Fock-state transform kernels.

States are stored as dict[bytes, complex]: the key is the occupation vector
(one byte per registered mode), the value the complex amplitude.  The
two-mode kernel is the hot path of the whole simulator.
"""

import math

_MAX_N = 16
_SQRT_FACT = [math.sqrt(math.factorial(n)) for n in range(_MAX_N + 1)]
_BINOM = [[math.comb(n, k) for k in range(n + 1)] for n in range(_MAX_N + 1)]


def two_mode_transform(terms, ia, ib, u00, u01, u10, u11, prune=1e-15):
    """Substitute a_ia -> u00 a_ia + u01 a_ib and a_ib -> u10 a_ia + u11 a_ib.

    Every input term (a_ia)^na (a_ib)^nb is re-expanded with the binomial
    theorem; bosonic sqrt-factorial weights are restored for the output
    occupations.  Terms below `prune` in magnitude are dropped.
    """
    out = {}
    for occ, amp in terms.items():
        na = occ[ia]
        nb = occ[ib]
        if na == 0 and nb == 0:
            out[occ] = out.get(occ, 0.0) + amp
            continue
        base = amp / (_SQRT_FACT[na] * _SQRT_FACT[nb])
        occ_b = bytearray(occ)
        # powers of u00/u01 for the na photons, u10/u11 for the nb photons
        pow00 = [1.0 + 0.0j]
        for _ in range(na):
            pow00.append(pow00[-1] * u00)
        pow01 = [1.0 + 0.0j]
        for _ in range(na):
            pow01.append(pow01[-1] * u01)
        pow10 = [1.0 + 0.0j]
        for _ in range(nb):
            pow10.append(pow10[-1] * u10)
        pow11 = [1.0 + 0.0j]
        for _ in range(nb):
            pow11.append(pow11[-1] * u11)
        for j in range(na + 1):
            ca = _BINOM[na][j] * pow00[j] * pow01[na - j]
            if ca == 0.0:
                continue
            for k in range(nb + 1):
                cb = _BINOM[nb][k] * pow10[k] * pow11[nb - k]
                if cb == 0.0:
                    continue
                p = j + k
                q = na + nb - p
                coeff = base * ca * cb * (_SQRT_FACT[p] * _SQRT_FACT[q])
                occ_b[ia] = p
                occ_b[ib] = q
                key = bytes(occ_b)
                out[key] = out.get(key, 0.0) + coeff
    if prune > 0.0:
        out = {k: v for k, v in out.items() if abs(v) >= prune}
    return out


def scale_mode_transform(terms, idx, u, prune=1e-15):
    """1x1 transform: a_idx -> u a_idx (u a phase or scalar)."""
    out = {}
    for occ, amp in terms.items():
        n = occ[idx]
        val = amp * (u ** n) if n else amp
        if abs(val) >= prune:
            out[occ] = out.get(occ, 0.0) + val
    return out
