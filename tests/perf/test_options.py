"""The option audit's comparison (``python -m tests.options``), on a toy."""

from ..options import OptionAudit, is_default
from ..reachability import recording


def toy(x, flag=False, n=1, label="a", *, scale=1.0, into=None):
    return x


def toy_steps(x, n=1):
    n = 5  # rebinding a parameter is not passing it
    yield x
    yield n


def _audit(calls):
    audit = OptionAudit({fn.__code__: (fn.__name__, fn)
                         for fn in (toy, toy_steps)})
    with recording(audit.hook):
        calls()
    return audit.tally()


def test_a_parameter_counts_as_set_only_for_another_value():
    def calls():
        toy(1)
        toy(2, flag=False, label="a")  # equal and of the same type
        toy(3, n=1.0)                   # equal, but a float
        toy(4, into=[])                 # not the default ``None``
        toy(5, False, 1, "b")           # positionally
    defaulted, never = _audit(calls)
    assert defaulted == 5
    assert never == [("toy", "flag", 5), ("toy", "scale", 5)]


def test_a_generator_is_read_once_on_entry():
    def calls():
        list(toy_steps(1))
        list(toy_steps(2, n=1))
    defaulted, never = _audit(calls)
    assert (defaulted, never) == (1, [("toy_steps", "n", 2)])


def test_unequal_or_ambiguous_values_are_not_the_default():
    class Ambiguous:
        def __eq__(self, other):
            raise ValueError("no single truth value")

    same = Ambiguous()
    assert is_default(same, same)
    assert not is_default(Ambiguous(), same)
    assert is_default((1, "a"), (1, "a"))
    assert not is_default(True, 1)
    assert not is_default(0.0, 0)
