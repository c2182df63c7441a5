"""Every package error survives a pickle round trip: an error raised in a
forked worker reaches its caller pickled."""

import inspect
import pickle

import pytest

from seqcl import errors

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.SeqclError)]

# constructor arguments for the errors whose __init__ is not (message,)
SPECIAL_ARGS = {errors.QpNonConvergenceError: (3.25e-4, 7)}


def test_every_error_class_is_covered():
    found, todo = set(), [errors.SeqclError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo.extend(sub for sub in cls.__subclasses__() if sub.__module__ == errors.__name__)
    assert found == set(ERROR_CLASSES)
    assert len(found) == 9


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_keeps_type_message_and_attributes(cls, protocol):
    err = cls(*SPECIAL_ARGS.get(cls, (f"{cls.__name__} planted",)))
    err.context = {"task": 2}  # an attribute set after construction
    back = pickle.loads(pickle.dumps(err, protocol))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_qp_error_keeps_residual_and_iterations():
    back = pickle.loads(pickle.dumps(errors.QpNonConvergenceError(0.5, 3)))
    assert (back.residual, back.iterations) == (0.5, 3)
    assert "after 3 iterations" in str(back)
