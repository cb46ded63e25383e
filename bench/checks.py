"""Checks shared by the workloads, and closed forms they compare against."""


class CheckFailed(Exception):
    """A job's output did not pass its check."""


def need(cond, what):
    if not cond:
        raise CheckFailed(what)


def fg_ball_size(rank, radius):
    """Points in a ball of the given radius in the free group of the given rank."""
    return 1 if radius == 0 else 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)
