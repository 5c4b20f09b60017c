"""In-memory span tracer that wraps the package's public functions.

Targets are named by the module that defines them (``"tube.newton2"``, or a
dependency such as ``"scipy.optimize.minimize"``).  Installing the tracer
finds each target's function object and replaces every binding of that object
in every loaded ``prestress_tube.*`` module namespace, including values of
module-level dicts such as the CLI's command table.  That covers modules that
import with ``from .x import y``.  A target that no longer exists, or that no
package module binds, is reported as absent; it never stops the run.

Each thread keeps its own span stack and span buffer (the energy scan runs
its equilibrations in a thread pool).  A span records its target, start,
end, self time (duration minus its children's), parent span, unit number and
one extracted value (Newton iterations, tensors per call).  Spans stay in
memory until ``spans()`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from time import perf_counter

PACKAGE = "prestress_tube"

# span fields and their array type codes
FIELDS = {"target": "i", "t0": "d", "t1": "d", "self": "d", "parent": "q", "unit": "i",
          "value": "d", "thread": "i"}


class Tracer:
    """Wraps named functions while installed; see the module docstring.

    ``targets`` lists dotted names; ``on_result`` and ``on_args`` map a dotted
    name to a function extracting the span's value from the call's result
    and exception, or from its arguments.
    """

    def __init__(self, targets, on_result: dict = None, on_args: dict = None):
        self.names = list(targets)
        self.on_result = dict(on_result or {})
        self.on_args = dict(on_args or {})
        self.unit = -1          # the unit being run; spans record it
        self.bindings = {}       # target -> number of namespace bindings replaced
        self._undo = []
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    # -- installation ----------------------------------------------------

    def _resolve(self, target: str):
        module_name, _, attr = target.rpartition(".")
        if "." not in module_name:
            module_name = f"{PACKAGE}.{module_name}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        return getattr(module, attr, None)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for idx, target in enumerate(self.names):
            original = self._resolve(target)
            self.bindings[target] = 0
            if not callable(original):
                continue
            wrapper = self._wrap(idx, target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
                        self.bindings[target] += 1
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self._undo.append((value, key, original))
                                self.bindings[target] += 1
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def absent(self):
        """Targets that were not found or that no package namespace binds."""
        return [t for t in self.names if not self.bindings.get(t)]

    # -- recording -------------------------------------------------------

    def _thread_state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []            # [span index, child time]
            st.buf = {f: array(code) for f, code in FIELDS.items() if f != "thread"}
            with self._lock:
                self._buffers.append(st.buf)
        return st

    def _wrap(self, idx, target, fn):
        get_result = self.on_result.get(target)
        get_args = self.on_args.get(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._thread_state()
            buf = st.buf
            parent = st.stack[-1][0] if st.stack else -1
            me = len(buf["target"])
            # reserve the slot now so children can name it as their parent
            buf["target"].append(idx)
            buf["parent"].append(parent)
            buf["unit"].append(self.unit)
            for f in ("t0", "self", "value"):
                buf[f].append(0.0)
            buf["t1"].append(-1.0)
            frame = [me, 0.0]
            st.stack.append(frame)
            value = get_args(args, kwargs) if get_args else 0.0
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                st.stack.pop()
                if st.stack:
                    st.stack[-1][1] += t1 - t0
                if get_result:
                    value = get_result(result, exc)
                buf["t0"][me] = t0
                buf["t1"][me] = t1
                buf["self"][me] = t1 - t0 - frame[1]
                buf["value"][me] = value
        return traced

    def spans(self):
        """All spans as parallel arrays (see FIELDS), plus ``names``.

        ``target`` indexes ``names``; ``parent`` indexes the arrays, or is -1
        for a root span.  A span that is still open has ``t1`` = -1.
        """
        out = {f: array(code) for f, code in FIELDS.items()}
        for thread, buf in enumerate(self._buffers):
            offset = len(out["target"])
            for f in ("target", "t0", "t1", "self", "unit", "value"):
                out[f].extend(buf[f])
            out["parent"].extend(p + offset if p >= 0 else -1 for p in buf["parent"])
            out["thread"].extend([thread] * len(buf["target"]))
        out["names"] = list(self.names)
        return out
