"""Exception types shared across the package."""


class CurrentsLabError(Exception):
    """Base class for all library errors."""


class ParseError(CurrentsLabError):
    """Rejected literal input; remembers the offending position."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} (position {position} in {text!r})")


class BasisMismatchError(CurrentsLabError):
    pass


class IdentityElementError(CurrentsLabError):
    pass


class ZeroCurrentError(CurrentsLabError):
    pass


class RankError(CurrentsLabError):
    pass


class LevelMismatchError(CurrentsLabError):
    pass


class AllEllipticError(CurrentsLabError):
    pass


class NotStabilizedError(CurrentsLabError):
    """Limit evaluation ran out of iterations before the window settled."""

    def __init__(self, message: str, sequence=()):
        self.sequence = tuple(sequence)
        super().__init__(message)


class AutomorphismTableError(CurrentsLabError):
    pass
