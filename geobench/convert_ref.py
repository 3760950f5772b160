"""Reference answers for the convert menus, independent of the code
the CLI runs.

Projections, datum shifts and geoid heights come from
``geokit.scalar_ref`` (pure ``math``, one point at a time, written from
the published formulas apart from geokit's NumPy kernels); the inverse
Helmert step is solved here by Cramer's rule. AFT menus apply the
asset's per-triangle affines after a brute-force point-in-triangle
search over every triangle, not geokit.aft's grid index. Only the
asset data (AFT tie points and coefficients, the geoid grid) is
shared with the CLI.
"""

from __future__ import annotations

import numpy as np

from geokit import scalar_ref as S
from geokit.datums import D48_GK, D96_TM, HELMERT_SETS
from geokit.ellipsoids import BESSEL, GRS80

HP = HELMERT_SETS["slovenia_v1"]


def _helmert_inv(X: float, Y: float, Z: float) -> tuple[float, float, float]:
    """Solve X' = c * R @ X + T for X, with R the small-angle matrix of
    scalar_ref.helmert_scalar."""
    c = HP.scale
    u, v, w = (X - HP.dx) / c, (Y - HP.dy) / c, (Z - HP.dz) / c
    rx, ry, rz = HP.rx, HP.ry, HP.rz
    m = ((1.0, -rz, ry), (rz, 1.0, -rx), (-ry, rx, 1.0))

    def det(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    d = det(m)
    rhs = (u, v, w)
    out = []
    for col in range(3):
        a = [list(row) for row in m]
        for r in range(3):
            a[r][col] = rhs[r]
        out.append(det(a) / d)
    return out[0], out[1], out[2]


def geo_to_gk(fi: float, la: float, h: float) -> tuple[float, float, float]:
    """ETRS89 geographic -> D48/GK (x, y, Bessel height)."""
    X, Y, Z = S.fila2xyz_scalar(fi, la, h, GRS80)
    fb, lb, hb = S.xyz2fila_scalar(*_helmert_inv(X, Y, Z), BESSEL)
    x, y = S.tm_fwd_scalar(fb, lb, D48_GK)
    return x, y, hb


def gk_to_geo(x: float, y: float, h: float) -> tuple[float, float, float]:
    """D48/GK -> ETRS89 geographic (fi, la, GRS80 height)."""
    fb, lb = S.tm_inv_scalar(x, y, D48_GK)
    X, Y, Z = S.helmert_scalar(*S.fila2xyz_scalar(fb, lb, h, BESSEL), HP)
    return S.xyz2fila_scalar(X, Y, Z, GRS80)


def geo_to_tm(fi: float, la: float) -> tuple[float, float]:
    return S.tm_fwd_scalar(fi, la, D96_TM)


def tm_to_geo(x: float, y: float) -> tuple[float, float]:
    return S.tm_inv_scalar(x, y, D96_TM)


def aft(tri, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle affine of the triangle holding each point, found by
    testing every triangle; points in none pass through unchanged."""
    v = tri.verts[tri.tris]  # (m, 3, 2)
    x0, y0 = v[:, 0, 0], v[:, 0, 1]
    e1x, e1y = v[:, 1, 0] - x0, v[:, 1, 1] - y0
    e2x, e2y = v[:, 2, 0] - x0, v[:, 2, 1] - y0
    det = e1x * e2y - e1y * e2x
    hit = np.full(len(x), -1, dtype=np.int64)
    for s in range(0, len(x), 256):
        px = x[s : s + 256, None] - x0
        py = y[s : s + 256, None] - y0
        # Barycentric coordinates of every point in every triangle.
        u = (px * e2y - py * e2x) / det
        w = (e1x * py - e1y * px) / det
        inside = (u >= -1e-12) & (w >= -1e-12) & (u + w <= 1 + 1e-12)
        any_in = inside.any(axis=1)
        hit[s : s + 256] = np.where(any_in, inside.argmax(axis=1), -1)
    c = tri.coef[np.maximum(hit, 0)]
    xo = np.where(hit >= 0, c[:, 0] * x + c[:, 1] * y + c[:, 2], x)
    yo = np.where(hit >= 0, c[:, 3] * x + c[:, 4] * y + c[:, 5], y)
    return xo, yo


def undulation(grid, fi: float, la: float) -> float:
    """Geoid undulation; 0 outside the grid, as the CLI's geoid mode."""
    rows, cols = grid.N.shape
    ri, ci = (fi - grid.lat0) / grid.dlat, (la - grid.lon0) / grid.dlon
    if not (0 <= ri <= rows - 1 and 0 <= ci <= cols - 1):
        return 0.0
    return S.bilinear_scalar(grid, fi, la)


def each(fn, *cols):
    """``fn`` applied point by point; its outputs as arrays."""
    return tuple(np.array(v) for v in zip(*map(fn, *cols)))


def expected(menu: int, a: np.ndarray, b: np.ndarray, h: np.ndarray):
    """What ``convert -t menu --height-mode geoid`` must print for input
    columns (a, b, h)."""
    import assets

    if menu == 1:
        o1, o2 = each(tm_to_geo, a, b)
        o3 = h
    elif menu == 2:
        (o1, o2), o3 = each(geo_to_tm, a, b), h
    elif menu == 3:
        o1, o2, o3 = each(gk_to_geo, a, b, h)
    elif menu == 4:
        o1, o2, o3 = each(geo_to_gk, a, b, h)
    elif menu == 5:
        fi, la, o3 = each(gk_to_geo, a, b, h)
        o1, o2 = each(geo_to_tm, fi, la)
    elif menu == 6:
        fi, la = each(tm_to_geo, a, b)
        o1, o2, o3 = each(geo_to_gk, fi, la, h)
    else:
        tri = assets.load_aft("fwd" if menu in (7, 9) else "inv")
        if menu == 8:
            a, b = each(geo_to_tm, a, b)
        o1, o2 = aft(tri, np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
        if menu == 7:
            o1, o2 = each(tm_to_geo, o1, o2)
        o3 = h
    if menu in (1, 3, 7):
        grid = assets.load_geoid("slo2000")
        o3 = o3 - np.array([undulation(grid, fi, la) for fi, la in zip(o1, o2)])
    return np.asarray(o1, float), np.asarray(o2, float), np.asarray(o3, float)
