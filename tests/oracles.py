"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
numpy, without importing the package under test, so agreement is evidence
rather than tautology.
"""
import numpy as np


def softmax_ref(v):
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def bivariate_pdf_ref(mu_x, mu_y, sigma_x, sigma_y, rho, x, y):
    """Textbook bivariate normal density at (x, y)."""
    zx = (x - mu_x) / sigma_x
    zy = (y - mu_y) / sigma_y
    z = zx ** 2 - 2.0 * rho * zx * zy + zy ** 2
    norm = 2.0 * np.pi * sigma_x * sigma_y * np.sqrt(1.0 - rho ** 2)
    return np.exp(-z / (2.0 * (1.0 - rho ** 2))) / norm


def mixture_nll_ref(pi, mu_x, mu_y, sigma_x, sigma_y, rho, dx, dy):
    dens = sum(p * bivariate_pdf_ref(mx, my, sx, sy, r, dx, dy)
               for p, mx, my, sx, sy, r in zip(pi, mu_x, mu_y, sigma_x, sigma_y, rho))
    return -np.log(dens)


def kl_gaussian_ref(mu, sigma_hat):
    """Closed-form KL(N(mu, exp(sigma_hat)) || N(0, I)) averaged per dimension
    the same way as the training objective: -(1/2N) sum(1 + s - mu^2 - e^s)."""
    mu = np.asarray(mu, dtype=np.float64)
    s = np.asarray(sigma_hat, dtype=np.float64)
    return -0.5 * np.mean(1.0 + s - mu ** 2 - np.exp(s))


def kl_monte_carlo(mu, sigma_hat, n_samples, rng):
    """Monte-Carlo estimate of the same per-dimension-averaged KL."""
    mu = np.asarray(mu, dtype=np.float64)
    s = np.asarray(sigma_hat, dtype=np.float64)
    sigma = np.exp(s / 2.0)
    x = mu + sigma * rng.standard_normal((n_samples, mu.size))
    log_q = -0.5 * (((x - mu) / sigma) ** 2) - np.log(sigma) - 0.5 * np.log(2 * np.pi)
    log_p = -0.5 * x ** 2 - 0.5 * np.log(2 * np.pi)
    return np.mean(log_q - log_p)


def from_offsets(rows, origin=(0.0, 0.0)):
    """Invert the Point5 encoding: cumulative-sum displacements from `origin`
    into (N, 2) points. Stops before the first padding row (p3) and after the
    first pen-up row (p2)."""
    rows = np.asarray(rows, dtype=np.float64)
    pts = []
    pos = np.asarray(origin, dtype=np.float64).copy()
    for row in rows:
        pen = int(np.argmax(row[2:5]))
        if pen == 2:
            break
        pos = pos + row[:2]
        pts.append(pos.copy())
        if pen == 1:
            break
    return np.array(pts)


def reverse_valid(seq, mask):
    """Reverse each row's real steps in place of order, leaving padding put."""
    out = seq.copy()
    if mask is None:
        return out[:, ::-1, :]
    for i in range(seq.shape[0]):
        n = int(mask[i].sum())
        out[i, :n] = seq[i, :n][::-1]
    return out


def point_segment_distance_ref(p, a, b):
    p, a, b = (np.asarray(v, dtype=np.float64) for v in (p, a, b))
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def rdp_indices_ref(points, epsilon):
    """Indices kept by plain recursive polyline simplification
    (first-max tie-breaking)."""
    points = np.asarray(points, dtype=np.float64)

    def recurse(lo, hi):
        if hi - lo < 2:
            return [lo, hi]
        dists = [point_segment_distance_ref(points[i], points[lo], points[hi])
                 for i in range(lo + 1, hi)]
        k = int(np.argmax(dists))
        if dists[k] <= epsilon:
            return [lo, hi]
        mid = lo + 1 + k
        left = recurse(lo, mid)
        return left[:-1] + recurse(mid, hi)

    return recurse(0, len(points) - 1)


def rdp_ref(points, epsilon):
    """Points kept by the recursive reference simplifier."""
    points = np.asarray(points, dtype=np.float64)
    return points[rdp_indices_ref(points, epsilon)]


def within_band(points, kept_indices, epsilon):
    """True iff every dropped point is within epsilon of the chord joining
    the kept points that bracket it."""
    kept = list(kept_indices)
    for lo, hi in zip(kept[:-1], kept[1:]):
        for i in range(lo + 1, hi):
            if point_segment_distance_ref(points[i], points[lo], points[hi]) \
                    > epsilon + 1e-12:
                return False
    return True


def numeric_gradient(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f(x)
        x[idx] = orig - h
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
        it.iternext()
    return g


def log_softmax_ref(v):
    """Log softmax over the last axis."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def compute_idm_ref(points, canvas, grid=12, references=(0.0, 45.0, 90.0, 135.0)):
    """Orientation and endpoint maps of a polyline, splatted one point at a
    time. Per point: the tangent angle mod 180 (central differences inside,
    one-sided at the ends), a response max(0, 1 - diff/45) per reference
    angle, and value * wx * wy kept as a per-cell max on the four cells
    around the point. The fifth map marks the cells nearest the endpoints.
    `canvas` needs x_min, y_min, width and height."""
    points = np.asarray(points, dtype=np.float64)
    diffs = np.empty_like(points)
    diffs[0] = points[1] - points[0]
    diffs[-1] = points[-1] - points[-2]
    if len(points) > 2:
        diffs[1:-1] = points[2:] - points[:-2]
    angles = np.mod(np.degrees(np.arctan2(diffs[:, 1], diffs[:, 0])), 180.0)
    w = canvas.width if canvas.width > 0 else 1.0
    h = canvas.height if canvas.height > 0 else 1.0
    gxs = np.clip((points[:, 0] - canvas.x_min) / w * (grid - 1), 0.0, grid - 1)
    gys = np.clip((points[:, 1] - canvas.y_min) / h * (grid - 1), 0.0, grid - 1)
    maps = np.zeros((5, grid, grid))
    for r, ref in enumerate(references):
        d = np.abs(np.mod(angles - ref, 180.0))
        responses = np.clip(1.0 - np.minimum(d, 180.0 - d) / 45.0, 0.0, 1.0)
        for gx, gy, value in zip(gxs, gys, responses):
            if value <= 0:
                continue
            x0, y0 = int(np.floor(gx)), int(np.floor(gy))
            fx, fy = gx - x0, gy - y0
            for cx, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
                for cy, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
                    if 0 <= cx < grid and 0 <= cy < grid and wx * wy > 0:
                        maps[r, cy, cx] = max(maps[r, cy, cx], value * wx * wy)
    for gx, gy in ((gxs[0], gys[0]), (gxs[-1], gys[-1])):
        maps[4, int(round(gy)), int(round(gx))] = 1.0
    return maps.reshape(-1)


def adam_ref(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam step t (1-based) on dicts of arrays, out of place:
    returns new (params, m, v) dicts and leaves the inputs untouched."""
    new_p, new_m, new_v = {}, {}, {}
    for k, g in grads.items():
        new_m[k] = beta1 * m[k] + (1.0 - beta1) * g
        new_v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        m_hat = new_m[k] / (1.0 - beta1 ** t)
        v_hat = new_v[k] / (1.0 - beta2 ** t)
        new_p[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_p, new_m, new_v
