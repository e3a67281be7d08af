"""Student-t statistics written apart from varsim's own stats:: code.

The benchmark recomputes every statistical answer the program gives
(a mean and its 95% confidence interval, a two-sample t test and the
decision taken from it) from the per-run cycles/txn, and compares.
numpy and scipy are not assumed, so the t distribution is built here
from the regularized incomplete beta function (Lentz's continued
fraction) and inverted by bisection.
"""

import math


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def betai(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lbeta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(lbeta + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t, df):
    """P(T <= t) for Student's t with df degrees of freedom."""
    tail = 0.5 * betai(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t >= 0 else tail


def t_quantile(p, df):
    """The t with P(T <= t) = p, by bisection."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def mean_var(xs):
    """Mean and unbiased variance, by a two-pass sum."""
    n = len(xs)
    m = math.fsum(xs) / n
    v = math.fsum((x - m) ** 2 for x in xs) / (n - 1) if n > 1 else 0.0
    return m, v


def mean_ci(xs, confidence=0.95):
    """(mean, lo, hi): ybar +/- t * s / sqrt(n)."""
    n = len(xs)
    m, v = mean_var(xs)
    half = t_quantile(0.5 * (1.0 + confidence), n - 1) * math.sqrt(v / n)
    return m, m - half, m + half


def pooled_t(a, b):
    """(t, df) of the equal-size pooled test of mean(a) > mean(b)."""
    n = len(a)
    ma, va = mean_var(a)
    mb, vb = mean_var(b)
    return (ma - mb) / math.sqrt((va + vb) / n), 2.0 * n - 2.0


def welch_t(a, b):
    """(t, df) of Welch's test of mean(a) > mean(b)."""
    ma, va = mean_var(a)
    mb, vb = mean_var(b)
    sa, sb = va / len(a), vb / len(b)
    df = (sa + sb) ** 2 / (sa * sa / (len(a) - 1) + sb * sb / (len(b) - 1))
    return (ma - mb) / math.sqrt(sa + sb), df


def p_one_sided(t, df):
    """P(T >= t) under H0."""
    return 1.0 - t_cdf(t, df)
