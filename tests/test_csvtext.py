"""The vectorized %.17g kernel against Python's own formatting, byte for byte."""

from fractions import Fraction

import numpy as np
import pytest

import mfa.cli as cli
from mfa import __version__
from mfa.csvtext import _HI, _LO, _S_MIN, format_block


def reference(block) -> bytes:
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                   for row in block).encode()


def check(values, cols=1):
    values = np.asarray(values, dtype=float)
    block = values[:len(values) // cols * cols].reshape(-1, cols)
    assert format_block(block) == reference(block)


class TestFormatBlock:
    def test_random_bit_patterns(self):
        # every exponent, sign and mantissa, subnormals, inf and nan included
        rng = np.random.default_rng(1301)
        bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)
        check(bits.view(np.float64), cols=8)

    def test_short_decimals_and_integers(self):
        # few significant digits: trailing zeros stripped, the point dropped
        rng = np.random.default_rng(1302)
        mantissa = rng.integers(1, 10 ** 6, size=50_000).astype(float)
        check(mantissa * 10.0 ** rng.integers(-12, 22, size=50_000), cols=5)
        check(rng.integers(-2 ** 53, 2 ** 53, size=20_000).astype(float), cols=4)
        check(rng.integers(1, 2 ** 20, size=20_000) / 2.0 ** rng.integers(0, 30, size=20_000))

    def test_specials(self):
        check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               np.nextafter(2.2250738585072014e-308, 0.0), np.inf, -np.inf, np.nan,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-250, 1e250,
               np.nextafter(1e-250, 0.0), np.nextafter(1e250, np.inf)])
        check([0.0, -0.0, 1.0, -1.0] * 50, cols=4)

    def test_powers_of_ten_and_neighbours(self):
        p = 10.0 ** np.arange(-323, 309)
        check(np.concatenate([p, -p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]), cols=4)

    def test_rounding_into_the_next_decade(self):
        # 17 nines round up to the next power of ten, which can switch %g
        # between fixed and scientific notation
        values = [np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0), np.nextafter(1e16, 0.0),
                  np.nextafter(1.0, 0.0), np.nextafter(10.0, 0.0), 9.9999999999999999e22,
                  0.99999999999999994, 9.99999999999999999e-5, 99999999999999999.0]
        check(values + [-v for v in values])

    def test_exact_ties(self):
        # the 18th significant digit is an exact 5: round half to even
        values = [(2 ** 53 - 1) / 4, (2 ** 53 - 3) / 4, 2 ** 60 + 2 ** 8, 2 ** 62 + 2 ** 10,
                  1.5, 2.5, 0.125, 1125899906842624.125, 3.0517578125e-05]
        check(values + [-v for v in values])

    def test_near_ties(self):
        # x = m 2^-e with x 10^s = d 2^-(e - s) away from a half-integer: m
        # solves m 5^s = 2^(e-s-1) + d (mod 2^(e-s)) and is kept when it is a
        # 53-bit mantissa, so x 10^s is 1e-17 to 2e-13 away from a tie
        values = []
        for s, e in [(24, 78), (25, 81)]:
            modulus = 2 ** (e - s)
            inverse = pow(5 ** s, -1, modulus)
            for d in range(-3000, 3000):
                m = (modulus // 2 + d) * inverse % modulus
                if 2 ** 52 <= m < 2 ** 53:
                    values.append(m / 2 ** e)
        assert len(values) > 100
        check(values + [-v for v in values], cols=2)

    def test_every_fixed_notation_width(self):
        # each decimal exponent -5 .. 17 with 1 to 17 significant digits
        digits = [int("123456789" * 2) // 10 ** k for k in range(17)]
        check([d * 10.0 ** (x - len(str(d)) + 1) for x in range(-5, 18) for d in digits],
              cols=17)

    def test_row_shapes(self):
        assert format_block(np.empty((0, 3))) == b""
        check([0.1], cols=1)
        check(np.linspace(-1.0, 1.0, 21), cols=21)

    def test_power_table_is_double_double(self):
        for i, (hi, lo) in enumerate(zip(_HI, _LO)):
            exact = Fraction(10) ** (_S_MIN + i)
            assert float(exact) == hi
            assert abs(Fraction(hi) + Fraction(lo) - exact) <= abs(Fraction(lo)) * 2.0 ** -52


class TestWriteCsv:
    @pytest.mark.parametrize("extra", [-cli._CSV_ROWS, 1 - cli._CSV_ROWS, 1])
    def test_block_boundaries(self, tmp_path, capsys, extra):
        # 0, 1 and one past a block of rows, to a file and to stdout
        n = cli._CSV_ROWS + extra
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 20, size=(n, 3))
        expected = f"# mfa {__version__}\na,b,c\n".encode() + reference(rows)
        dest = tmp_path / "out.csv"
        cli._write_text(str(dest), "a,b,c", cli._csv_blocks(rows))
        assert dest.read_bytes() == expected
        cli._write_text(None, "a,b,c", cli._csv_blocks(rows))
        assert capsys.readouterr().out.encode() == expected
