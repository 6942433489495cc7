"""Tests of the simulated vector ISA."""

from repro.isa.emulator import VectorEmulator, li, vle, vop, vse, vsetvl


def run_strip_mined_axpy(machine: VectorEmulator, n: int, a_addr: int,
                         x_addr: int, y_addr: int, alpha: float) -> None:
    """Drive a VLA strip-mined ``a = alpha*x + y`` kernel on *machine*.

    The scalar loop plays the role of the compiler-emitted strip-mining
    code: each iteration requests the *remaining* trip count with
    ``vsetvl`` and advances by whatever the machine granted -- so the
    identical instruction sequence runs on a 256-element machine (one
    strip) and an 8-element machine (many strips), the paper's
    vector-length-agnostic portability argument in miniature."""
    machine.step(li("alpha", alpha))
    done = 0
    while done < n:
        machine.step(li("rem", n - done))
        machine.step(vsetvl("vl", "rem"))
        granted = int(machine.sreg("vl"))
        assert granted > 0
        machine.step(vle(1, x_addr + done))
        machine.step(vle(2, y_addr + done))
        machine.step(vop("vfmadd", 3, 1, "alpha", 2))
        machine.step(vse(3, a_addr + done))
        done += granted
