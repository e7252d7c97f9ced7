"""Joint radar-communications power-split simulator and optimizer.

One station broadcasts a single waveform carrying two users' downlink
signals plus a radar pulse, separated only by power allocation.  This
package evaluates both sides of the design (communications rates, delay
estimation error bounds), solves the constrained power splits in closed
form, and emits the tradeoff datasets through :mod:`radcom.cli`.
"""

__version__ = "0.1.0"
