"""Timing-error injection.

"Timing errors are caused by users who interact with web applications
while the latter are not yet ready to handle user interaction ... To
simulate timing errors, we modify the delay between replaying
consecutive WaRR Commands. We stress test web applications by replaying
commands with no wait time." (paper, Section V-B)

The injector produces trace variants with modified delays; the WaRR
Replayer's :class:`~repro.core.replayer.TimingMode` executes them.
"""


class TimingErrorInjector:
    """Generates impatient-user variants of a trace."""

    def __init__(self, trace):
        self.trace = trace

    def no_wait(self):
        """The fully impatient user: every delay becomes zero."""
        return ("no-wait", self.trace.with_delays_scaled(0.0))

    def scaled(self, factor):
        """A uniformly faster (or slower) user."""
        return ("scaled x%g" % factor, self.trace.with_delays_scaled(factor))

    def rush_command(self, index):
        """One impatient moment: only command ``index`` loses its wait.

        Pinpoints *which* wait protects the application — the variant
        that fails identifies the action racing the initialization.
        """
        commands = [c.copy() for c in self.trace.commands]
        if index < 0 or index >= len(commands):
            raise IndexError("trace has no command %d" % index)
        commands[index] = commands[index].copy(elapsed_ms=0)
        return ("rush command %d" % index, self.trace.copy(commands=commands))

    def stress_variants(self, factors=(0.0, 0.1, 0.5)):
        """The standard stress suite: no-wait plus scaled variants."""
        variants = [self.no_wait()]
        for factor in factors:
            if factor == 0.0:
                continue
            variants.append(self.scaled(factor))
        return variants

    def rush_each_command(self):
        """One variant per command, each rushing only that command."""
        return [self.rush_command(index) for index in range(len(self.trace))]
