"""A stand-in for a module, imported at its first attribute read, so importing
ehsobs or reading a scenario loads neither numpy nor zlib, and `check-gains`
loads no numpy."""

import importlib


class LazyModule:
    """Each attribute read imports the module `name` (a sys.modules lookup once
    loaded) and reads the attribute there.  Nothing is cached, so an attribute
    patched on the module is seen."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)
