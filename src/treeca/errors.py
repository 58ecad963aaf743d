"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of TreecaError carrying a stable
``code`` string, so the CLI can map errors to exit statuses and emit a
machine-readable line without string matching.
"""


class TreecaError(Exception):
    code = "error"


class NonPrimeModulus(TreecaError):
    code = "non-prime-modulus"


class ModulusOutOfRange(TreecaError):
    code = "modulus-out-of-range"


class DivisionByZero(TreecaError):
    code = "division-by-zero"


class InvalidLevel(TreecaError):
    code = "invalid-level"


class AddressOutOfShape(TreecaError):
    code = "address-out-of-shape"


class SingularMatrix(TreecaError):
    code = "singular-matrix"


class DimensionMismatch(TreecaError):
    code = "dimension-mismatch"


class EnumerationTooLarge(TreecaError):
    code = "enumeration-too-large"


class FixtureMismatch(TreecaError):
    code = "fixture-mismatch"

    def __init__(self, diffs):
        self.diffs = list(diffs)
        super().__init__(f"{len(self.diffs)} row(s) differ from fixture")


class FormatError(TreecaError):
    code = "format-error"
