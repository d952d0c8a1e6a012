"""The %.17g field kernel of csvio: its text on every layout it writes, and
the cost properties its layout was chosen for."""

import re

import numpy as np

from kostant_toda import csvio


def _kernel_text(x):
    """The kernel's text of each double of x, one field each."""
    sep = np.full(x.size, ord(","), dtype=np.uint8)
    return csvio._format_fields(np.ascontiguousarray(x, dtype=np.float64), sep).decode().split(",")[:-1]


def _layouts():
    """Doubles of every layout the kernel writes, without the negatives."""
    xs = []
    for x in range(-99, 100):  # the exponent form and "0.000" prefixes
        xs += [float(f"1.2345678901234567e{x}"), float(f"9.8765432109876543e{x}"),
               float(f"1.25e{x}"), float(f"7e{x}")]
    for x in range(16):  # a digit after the point, at every point position
        xs += [float("12345678901234567"[: x + 1] + ".5"), float("9" * (x + 1) + ".25"),
               float("1" * (x + 1) + "." + "3" * (15 - x) + "7"), float("4" * (x + 1))]
    xs += [12345678901234568.0, 1e16 + 2, 2e16, 99999999999999984.0]  # X = 16
    return np.array(xs)


def test_kernel_writes_every_layout_like_17g():
    pos = _layouts()
    x = np.concatenate([pos, -pos])
    want = ["%.17g" % v for v in x.tolist()]
    # the inputs cover what they are for: every point position with a digit
    # after it, X = 16, the exponent and "0.000" forms of every X, and last
    # digits that are 0 (stripped) or not
    points = {s.find(".") - s.startswith("-") for s in want if "e" not in s and "." in s}
    assert points >= set(range(1, 17))
    assert any(re.fullmatch(r"-?\d{17}", s) for s in want)
    exponents = {int(s.split("e")[1]) for s in want if "e" in s}
    assert exponents == set(range(-99, -4)) | set(range(17, 100))
    prefixes = {re.match(r"-?(0\.0*)", s).group(1) for s in want if re.match(r"-?0\.", s)}
    assert prefixes == {"0.", "0.0", "0.00", "0.000"}
    digits = [re.sub(r"e.*|\D", "", s).lstrip("0") for s in want]
    assert any(len(d) == 17 and d[-1] != "0" for d in digits)
    assert any(len(d) < 17 for d in digits)
    got = _kernel_text(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} fields differ, first {bad[:3]}"


class _Counted:
    """A kernel table that counts the entries gathered from it."""

    def __init__(self, table):
        self.table, self.gathered = table, 0

    def take(self, indices, *args, **kwargs):
        self.gathered += np.size(indices)
        return self.table.take(indices, *args, **kwargs)


def test_kernel_layout_stays_within_its_cost_budget(monkeypatch):
    # a field's cells are what bytes.translate scans: the cost that most
    # sets the kernel's time, like a ufunc count for RK4's step
    assert csvio._TEMPLATES.shape[1] <= 29
    rng = np.random.default_rng(5)
    x = rng.uniform(1, 10, 8_192) * 10.0 ** rng.integers(-30, 30, 8_192)
    x *= rng.choice([-1.0, 1.0], x.size)
    want = ["%.17g" % v for v in x.tolist()]
    full = [re.sub(r"e.*|\D", "", s).lstrip("0") for s in want]
    keep = np.array([len(d) == 17 and d[-1] != "0" for d in full])
    assert keep.mean() > 0.8
    last = _Counted(csvio._LAST)
    monkeypatch.setattr(csvio, "_LAST", last)
    # no field whose 17th digit is nonzero looks up its trailing zeros
    assert _kernel_text(x[keep]) == [s for s, k in zip(want, keep) if k]
    assert last.gathered == 0
    # a field that ends in 0 does, four groups of four digits each
    assert _kernel_text(x[~keep]) == [s for s, k in zip(want, keep) if not k]
    assert last.gathered == 4 * (~keep).sum()
