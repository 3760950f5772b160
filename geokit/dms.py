"""Sexagesimal <-> decimal degree helpers + fixed-precision formatting.

Reimplements the reference's ``ggeo.c::dms2deg`` / ``deg2dms``
(SURVEY.md §2.1 K1) and the ``gk-slo`` output formatting (§2.2 S2)
as vectorized NumPy kernels usable inside map_batches parsers and
formatters.
"""

from __future__ import annotations

import numpy as np


def dms2deg(deg: np.ndarray, minute: np.ndarray, sec: np.ndarray) -> np.ndarray:
    """(d, m, s) -> signed decimal degrees. Sign carried by ``deg``."""
    deg = np.asarray(deg, dtype=np.float64)
    minute = np.asarray(minute, dtype=np.float64)
    sec = np.asarray(sec, dtype=np.float64)
    # signbit (not < 0) so that -0.0 degrees (e.g. -0°30') keeps its
    # sign through the round trip.
    sign = np.where(np.signbit(deg), -1.0, 1.0)
    return sign * (np.abs(deg) + minute / 60.0 + sec / 3600.0)


def deg2dms(dd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decimal degrees -> (d, m, s); d carries the sign."""
    dd = np.asarray(dd, dtype=np.float64)
    sign = np.where(dd < 0, -1.0, 1.0)
    ad = np.abs(dd)
    d = np.floor(ad)
    rem = (ad - d) * 60.0
    m = np.floor(rem)
    s = (rem - m) * 60.0
    return sign * d, m, s


def format_deg(dd: np.ndarray, decimals: int = 9) -> np.ndarray:
    """Fixed-precision decimal-degree strings (reference gk-slo output
    precision ~1e-9 deg, SURVEY.md §2.2 S2)."""
    return np.array([f"{v:.{decimals}f}" for v in np.asarray(dd, dtype=np.float64)])


def format_dms(dd: np.ndarray, sec_decimals: int = 5) -> np.ndarray:
    """`46°03'25.12345"`-style strings. The sign is carried as an
    explicit prefix (NOT in the degrees digit): for inputs in (-1, 0)
    the sign lives in -0.0 degrees, which ``int()`` formats as "0" and
    sign-based carry logic mis-handles (-0.99999999999 used to print
    as +1°00'00")."""
    dd = np.asarray(dd, dtype=np.float64)
    out = []
    for v in dd:
        neg = bool(np.signbit(v))
        ad = abs(v)
        di = int(ad)
        rem = (ad - di) * 60.0
        mi = int(rem)
        si = round((rem - mi) * 60.0, sec_decimals)
        # Carry seconds/minutes that round up to 60 (magnitudes only).
        if si >= 60.0:
            si -= 60.0
            mi += 1
        if mi >= 60:
            mi -= 60
            di += 1
        sign = "-" if neg else ""
        out.append(f"{sign}{di}°{mi:02d}'{si:0{3 + sec_decimals}.{sec_decimals}f}\"")
    return np.array(out)


def format_m(v: np.ndarray, decimals: int = 3) -> np.ndarray:
    """Metres to mm precision (reference output formatting)."""
    return np.array([f"{x:.{decimals}f}" for x in np.asarray(v, dtype=np.float64)])
