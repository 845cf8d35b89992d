"""What every other module shares: `_Frozen`, the base of the immutable
value classes, and the integer helpers `euler_phi`, `_factorize` and
`_is_prime`.  It imports nothing, so a module that needs one of them does
not load `characters` (or any other qzeta module) to get it."""


class _Frozen:
    """An immutable value: its fields are its `__slots__`, stored once by
    `_set` in slot order; assignment raises AttributeError.  `==`, `hash`
    and the repr `Class(field=value, ...)` read the public fields, those
    not starting with "_" (a private slot holds a cache or a provenance)."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the slots' own setters cost about what direct object.__setattr__
        # stores do; arithmetic builds PadicNumber and LogScalar in loops
        cls._stores = tuple(getattr(cls, n).__set__ for n in cls.__slots__)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def _set(self, *values):
        for store, value in zip(self._stores, values):
            store(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields))


def euler_phi(n: int) -> int:
    for p, _ in _factorize(n):
        n -= n // p
    return n


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(b, d, n) == 1 or
               any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in bases)
