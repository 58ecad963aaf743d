"""Linear cellular automata on the order-2 Cayley tree over Z_p.

Each export is imported from its module on first read (a PEP 562 module
__getattr__), so `import treeca` itself loads no submodule and no NumPy.
"""

_EXPORTS = {
    "analysis": ("EntropySequence", "PartitionProbe", "ReversibilityRecord", "SweepSpec",
                 "classify", "entropy_sequence", "partition_atom_count", "sweep"),
    "dynamics": ("Configuration", "GardenReport", "evolve", "garden_report", "preimages",
                 "step_local"),
    "field": ("PrimeField", "is_prime"),
    "rulematrix": ("LinAlgReport", "Params", "RuleMatrix", "SolutionSet", "build_rule_matrix",
                   "invert", "kernel_basis", "linalg_report", "solve"),
    "tree": ("TreeShape",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# the exports, and the submodules that importing them all binds on the package
__all__ = [*_OWNER, *_EXPORTS, "errors"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_OWNER.get(name, name)}", __name__)
    value = globals()[name] = getattr(module, name) if name in _OWNER else module
    return value
