"""Word-parallel reinterpretation of digit sequences between radices.

A value ``sum a_j * c**j`` is turned into ``sum a_j * d**j`` without ever
touching digits one at a time: the digit count is halved (or doubled) per
round, every round a constant number of full-width passes.  Digit counts
are padded to a power of two internally; callers pass the true count.

Batched conversion processes even-numbered instances in a first round and
odd-numbered ones in a second, gathering each round's instances into a
scratch at power-of-two pitch so the padded intermediate layouts stay
region-aligned.  In place, instance q would start at bit q*s*f; when s is
not a power of two that offset is not a multiple of the 2r-bit regions the
ladder and its three-phase division work on, so regions would straddle
instance boundaries and mix digits of neighbouring instances.
"""

from functools import lru_cache

from .words import BitString, _leq_mask_int, ones, regionwise_div_int

#: When True, digit preconditions are verified word-parallel on every call.
debug_checks = False


def _next_pow2(s: int) -> int:
    return 1 << max(0, (s - 1).bit_length())


@lru_cache(maxsize=None)
def _low_half_mask(total_bits: int, r: int) -> int:
    """Low r bits of every 2r-bit region across a total_bits-wide grid."""
    low = (1 << r) - 1
    out = 0
    for i in range(total_bits // (2 * r)):
        out |= low << (2 * r * i)
    return out


def _check_digits(fields_value: int, limit: int, m: int, f: int) -> None:
    if limit <= 0 or m <= 0:
        return
    mask = _leq_mask_int(fields_value & ((1 << (m * f)) - 1), m, f, limit - 1)
    if mask != ones(m, f):
        raise ValueError(f"digit >= {limit} in input")


@lru_cache(maxsize=None)
def _ladder_powers(base: int, f: int, s_pad: int) -> tuple:
    """Per-round (region width, radix power) pairs shared by both ladders."""
    t = s_pad.bit_length() - 1
    out = []
    b = base
    for k in range(t):
        out.append(((1 << k) * f, b))
        b *= b
    return tuple(out)


def _fields_to_value(z: int, base: int, f: int, s_pad: int, total_bits: int) -> int:
    """Combine f-bit digits into base-`base` values, two digits per round."""
    for r, b in _ladder_powers(base, f, s_pad):
        u = _low_half_mask(total_bits, r)
        z = (z & u) + b * ((z >> r) & u)
    return z


def _value_to_fields(x: int, base: int, f: int, s_pad: int, total_bits: int) -> int:
    """Split base-`base` values into f-bit digits, halving the radix per round."""
    for r, b in reversed(_ladder_powers(base, f, s_pad)):
        nregions = total_bits // (2 * r)
        # Every 2r-region holds one digit a < b^2; split it into (a // b,
        # a mod b) occupying the high and low r bits of the region.
        q = regionwise_div_int(x, b, 2 * r, nregions)
        x = (x - b * q) + (q << r)
    return x


def pow2_to_base(z: BitString, d: int, f: int, s: int) -> BitString:
    """Evaluate s f-bit digits of z as a base-d number.

    Returns sum a_j * d**j in an s*f-bit string.
    """
    if d < 2 or s < 1:
        raise ValueError("need d >= 2 and s >= 1")
    if (1 << f) < d:
        raise ValueError("field width too small for base")
    s_pad = _next_pow2(s)
    zv = z.value & ((1 << (s * f)) - 1)
    if debug_checks:
        _check_digits(zv, d, s, f)
    y = _fields_to_value(zv, d, f, s_pad, s_pad * f)
    return BitString(y, s * f, z.w)


def base_to_pow2(x: BitString, c: int, f: int, s: int) -> BitString:
    """Split a base-c number into s f-bit digit fields.

    Exact inverse of `pow2_to_base` whenever every digit is below both
    radices.
    """
    if c < 2 or s < 1:
        raise ValueError("need c >= 2 and s >= 1")
    if (1 << f) < c:
        raise ValueError("field width too small for base")
    if x.value >= c ** s:
        raise ValueError(f"value has more than {s} base-{c} digits")
    s_pad = _next_pow2(s)
    z = _value_to_fields(x.value, c, f, s_pad, s_pad * f)
    return BitString(z & ((1 << (s * f)) - 1), s * f, x.w)


def change_base_batched(
    x: BitString, c: int, d: int, f: int, s: int, p: int
) -> BitString:
    """Re-base p packed instances of s digits each, word-parallel.

    Instance q occupies bits [q*s*f, (q+1)*s*f) of x and holds the value
    sum a_j * c**j; on return it holds sum a_j * d**j.  All digits must be
    below min(c, d).
    """
    if c < 2 or d < 2 or s < 1 or p < 1:
        raise ValueError("need c, d >= 2 and s, p >= 1")
    if (1 << f) < max(c, d):
        raise ValueError("field width too small for the larger base")
    if p * s * f > x.len_bits:
        raise ValueError("instances do not fit in x")
    limit = min(c, d)
    s_pad = _next_pow2(s)
    pitch = 2 * s_pad * f
    inst_mask = (1 << (s * f)) - 1
    out = 0
    for parity in (0, 1):
        idxs = range(parity, p, 2)
        if not idxs:
            continue
        scratch = 0
        for slot, q in enumerate(idxs):
            scratch |= ((x.value >> (q * s * f)) & inst_mask) << (slot * pitch)
        total = len(idxs) * pitch
        fields = _value_to_fields(scratch, c, f, s_pad, total)
        if debug_checks:
            _check_digits(fields, limit, total // f, f)
        vals = _fields_to_value(fields, d, f, s_pad, total)
        for slot, q in enumerate(idxs):
            out |= ((vals >> (slot * pitch)) & inst_mask) << (q * s * f)
    return BitString(out, p * s * f, x.w)
