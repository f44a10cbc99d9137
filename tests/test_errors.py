from fractions import Fraction

import pytest

from lacuna.errors import printable


class TestPrintable:
    def test_values_str_can_print_are_unchanged(self):
        for v in (0, -7, 10**4000, Fraction(-3, 8), Fraction(1, 10**4000), 0.25):
            assert printable(v) == str(v)

    @pytest.mark.parametrize("e", [14300, 20000])
    def test_ints_past_the_limit_print_their_magnitude(self, e):
        assert printable(1 << e) == f"~2^{e}"
        assert printable((2 << e) - 1) == f"~2^{e}"
        assert printable(-(1 << e) - 5) == f"-~2^{e}"

    def test_fractions_past_the_limit_print_their_magnitude(self):
        # 2^e <= |value| < 2^(e+1), also where numerator and denominator
        # have the same length
        big = 1 << 20000
        assert printable(Fraction(1, big)) == "~2^-20000"
        assert printable(Fraction(1, big + 1)) == "~2^-20001"
        assert printable(Fraction(-big, 3)) == "-~2^19998"
        assert printable(Fraction(big + 1, big - 1)) == "~2^0"
        assert printable(Fraction(big - 1, big + 1)) == "~2^-1"
