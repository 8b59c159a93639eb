import pathlib
import sys

import pytest

from sturmlab.sturm import SturmianProgram
from sturmlab.matseq import roy_family, bl_family
from sturmlab.approx import make_bundle

# the golden corpus's generator, whose grids the tests share
sys.path.insert(0, str(pathlib.Path(__file__).with_name("golden")))


@pytest.fixture(scope="session")
def prog_ones():
    return SturmianProgram.all_ones()


@pytest.fixture(scope="session")
def prog_twos():
    return SturmianProgram([-1, 1], [2])


@pytest.fixture(scope="session")
def bl12(prog_ones):
    return make_bundle(bl_family(1, 2), prog_ones)


@pytest.fixture(scope="session")
def roy212(prog_ones):
    return make_bundle(roy_family(2, 1, 2), prog_ones)


@pytest.fixture(scope="session")
def roy313(prog_ones):
    return make_bundle(roy_family(3, 1, 3), prog_ones)


@pytest.fixture(scope="session")
def roy212_p2(prog_twos):
    return make_bundle(roy_family(2, 1, 2), prog_twos)
