"""Runtime values of the denotational evaluator.

Representation conventions:

* naturals are Python ints, truth values Python floats in [0, 1],
  alphabet labels Python strings;
* both product and tensor pairs are 2-tuples (the underlying set maps
  coincide; the type picks the metric);
* sums are tagged :class:`VInj`;
* distributions are :class:`qlog.measures.Dist`;
* functions are closures over an environment of approximations;
* processes are :class:`VProc` nodes whose step distribution may
  contain lazy back-references (:class:`VRef`) into a fixed-point
  thunk.  Forcing a reference is memoised and thread-safe, so node
  identity is stable and usable as a memoisation key.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .measures import Dist, dist_to_json, key_of
from . import terms as T


class VUnit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def dist_key(self):
        return ("unit",)

    def __repr__(self):
        return "()"


UNIT = VUnit()


@dataclass(eq=False)
class VInj:
    index: int
    value: Any

    def dist_key(self):
        return ("inj", self.index, key_of(self.value))

    def __repr__(self):
        return f"inj{self.index}({self.value!r})"


@dataclass(eq=False)
class VClosure:
    param: str
    grade: Any  # declared Lipschitz factor of the parameter
    body: T.Term
    env: Dict[str, "Approx"]

    def dist_key(self):
        return ("closure", id(self))

    def __repr__(self):
        return f"<closure {self.param}>"


@dataclass(eq=False)
class VNative:
    """Built-in function value (seeds, probes, case-study plumbing)."""

    fn: Any  # callable(Approx) -> Approx
    name: str = "native"

    def dist_key(self):
        return ("native", id(self))

    def __repr__(self):
        return f"<native {self.name}>"


@dataclass(eq=False)
class VProc:
    """A process node: observable label plus one-step distribution."""

    label: str
    step: Optional[Dist] = None  # filled after construction for knots

    def dist_key(self):
        return ("proc", id(self))

    def __repr__(self):
        return f"<proc {self.label} #{id(self) & 0xFFFF:x}>"


@dataclass(eq=False)
class VThunk:
    """Suspended fixed point unfolding on demand.

    ``force_component(path)`` evaluates the recursive body once (with
    the recursion variable bound to a self-reference) and navigates the
    given projection path.  Results are memoised so every navigation
    returns the identical object, which makes object identity a sound
    node key for coinductive values.
    """

    make_body: Any  # callable(env_with_self) -> Approx
    fix_type: T.Type
    max_unfolds: int
    fallback: Any  # callable(type) -> seed value, used past the fuel cap
    _lock: threading.RLock = field(default_factory=threading.RLock)
    _memo: Dict[Tuple[int, ...], Any] = field(default_factory=dict)
    _unfolds: int = 0
    _root: Any = None
    _computing: bool = False

    def dist_key(self):
        return ("thunk", id(self))

    def _component_type(self, path: Tuple[int, ...]) -> T.Type:
        ty = self.fix_type
        for i in path:
            if isinstance(ty, T.TProd):
                ty = ty.left if i == 1 else ty.right
            elif isinstance(ty, T.TTensor):
                ty = ty.left if i == 1 else ty.right
            else:
                raise ValueError(f"cannot project {ty}")
        return ty

    def force_component(self, path: Tuple[int, ...]) -> Any:
        with self._lock:
            if path in self._memo:
                return self._memo[path]
            if self._root is None:
                if self._computing:
                    # the body demanded its own value before producing
                    # a constructor: the recursion is not productive
                    raise ValueError(
                        "fixed point forced its own value while unfolding"
                    )
                if self._unfolds >= self.max_unfolds:
                    v = self.fallback(self._component_type(path))
                    self._memo[path] = v
                    return v
                self._unfolds += 1
                self._computing = True
                try:
                    self._root = self.make_body(self)
                finally:
                    self._computing = False
                # never called again: let go of the evaluator they hold
                self.make_body = self.fallback = None
            v = self._root.value
            for i in path:
                if isinstance(v, VRef):
                    v = v.force()
                if not isinstance(v, tuple):
                    raise ValueError("projection from a non-pair fixed point")
                v = v[0] if i == 1 else v[1]
            self._memo[path] = v
            return v


@dataclass(eq=False)
class VRef:
    """Lazy reference to a component of a fixed-point thunk."""

    thunk: VThunk
    path: Tuple[int, ...] = ()

    def dist_key(self):
        return ("ref", id(self.thunk), self.path)

    def force(self) -> Any:
        v = self.thunk.force_component(self.path)
        while isinstance(v, VRef):
            v = v.thunk.force_component(v.path)
        return v

    def project(self, index: int) -> "VRef":
        return VRef(self.thunk, self.path + (index,))

    def __repr__(self):
        return f"<ref {self.path} of {id(self.thunk) & 0xFFFF:x}>"


def deref(v: Any) -> Any:
    """Resolve lazy references to their memoised concrete value."""
    while isinstance(v, VRef):
        v = v.force()
    return v


@dataclass
class Approx:
    """A value with a certified error radius.

    The radius bounds the distance (in the value's type) between this
    value and the true denotation; it only grows at fixed-point
    truncations and distribution tail cut-offs.  A one-sided marker is
    set when only an upper or lower bound is known (sampled
    quantifiers, probed function distances).
    """

    value: Any
    radius: float = 0.0
    sided: Optional[str] = None  # None | "upper" | "lower"

    def widen(self, extra: float) -> "Approx":
        return Approx(self.value, min(self.radius + extra, 1.0), self.sided)


def value_to_json(v: Any) -> Any:
    """JSON form of a first-order value (used by the CLI)."""
    v = deref(v)
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        return {"label": v}
    if isinstance(v, VUnit):
        return {"unit": True}
    if isinstance(v, tuple):
        return {"pair": [value_to_json(v[0]), value_to_json(v[1])]}
    if isinstance(v, VInj):
        return {"inj": v.index, "value": value_to_json(v.value)}
    if isinstance(v, Dist):
        return {"dist": dist_to_json(v, value_to_json)}
    if isinstance(v, VProc):
        return {"proc": v.label}
    if isinstance(v, VClosure):
        return {"closure": v.param}
    if isinstance(v, VNative):
        return {"native": v.name}
    raise ValueError(f"value {v!r} has no JSON form")
