"""The code-line count of tests/code_lines.py."""

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class A:
    """Class docstring."""

    x = """a string that is not a docstring
    counts on every line"""

    def f(self):
        """Function docstring."""
        return os.sep
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, two lines of x, def, return
    assert code_lines(SOURCE) == 6
