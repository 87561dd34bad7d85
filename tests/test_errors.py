import inspect
import pickle

import pytest

from wignerlab import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.WignerlabError)]


def instance(cls):
    if cls is errors.SampleError:
        return cls("sample 5 failed", index=5)
    if cls is errors.SolverError:
        return cls("no convergence", residual=0.25)
    return cls("message")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip_keeps_message_and_attributes(cls):
    # errors raised in Monte Carlo worker processes reach the caller pickled
    exc = instance(cls)
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is cls
    assert clone.args == exc.args
    assert vars(clone) == vars(exc)
