"""Exception types raised across the package."""


class CmcError(Exception):
    """Base class for all errors raised by this package."""


# candidate graph construction / validation

class LeavesDoNotCoverImage(CmcError):
    def __init__(self, detail):
        super().__init__(f"invalid leaf label image: {detail}")


class SubsetNotForest(CmcError):
    def __init__(self, ids, detail):
        self.ids = tuple(ids)
        super().__init__(f"subset relation is not a forest ({detail}): {sorted(ids)}")


class AdjacencyBetweenOverlapping(CmcError):
    def __init__(self, id_a, id_b):
        self.ids = (id_a, id_b)
        super().__init__(f"adjacency edge ({id_a}, {id_b}) joins overlapping candidates")


class KeyMismatch(CmcError):
    def __init__(self, detail):
        super().__init__(f"solution keys do not match the graph: {detail}")


# hierarchy construction

class NoSeeds(CmcError):
    def __init__(self, threshold):
        super().__init__(f"no pixel below seed threshold {threshold}")


class NotAdjacent(CmcError):
    def __init__(self):
        super().__init__("regions share no 4-neighbor pixel pair")


# cost model

class DimensionMismatch(CmcError):
    def __init__(self, expected, got):
        super().__init__(f"image dimensions {got} do not match expected {expected}")


class SingleClass(CmcError):
    def __init__(self):
        super().__init__("training samples contain only one class")


class SchemaMismatch(CmcError):
    def __init__(self, expected, got):
        super().__init__(f"feature vector length {got} does not match model ({expected})")


# solver

class InfeasibleSolution(CmcError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"assignment violates {len(self.violations)} constraint(s)")


# evaluation

class EmptyOverlap(CmcError):
    def __init__(self):
        super().__init__("no pixels left to compare after background exclusion")


class DegenerateInput(CmcError):
    def __init__(self, detail):
        super().__init__(detail)


# synthetic data

class PlacementFailure(CmcError):
    def __init__(self, placed, wanted):
        super().__init__(f"could only place {placed} of {wanted} cells without overlap")


# pipeline

class StageFailure(CmcError):
    """A pipeline stage failed; wraps the underlying error with its stage name."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {str(cause) or type(cause).__name__}")
