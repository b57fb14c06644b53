"""Three undeclared third-party imports among allowed ones."""

import json  # standard library: fine
import os.path  # standard library: fine

import numpy as np  # declared: fine
from scipy import special  # declared (names compare case-insensitively): fine

from fixturepkg import helpers  # the package itself: fine
from . import helpers as relative  # relative import: fine

import networkx  # undeclared
from yaml.loader import SafeLoader  # undeclared


def lazy():
    import pandas  # undeclared, imported lazily: still a runtime dependency

    return pandas, json, os, np, special, helpers, relative, networkx, SafeLoader
