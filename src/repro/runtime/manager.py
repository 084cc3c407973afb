"""Runtime manager: software-style kernel loading and execution on an overlay.

The manager mirrors how the ARM core drives the overlay on the Zynq platform
described in the paper:

1. **register** a kernel — runs the mapping tool flow once (schedule, register
   allocation, instruction generation, configuration image) and caches the
   result, like an ahead-of-time compiler would;
2. **load** a kernel — models the hardware context switch: if the overlay is
   critical-path-sized and the new kernel needs a different depth, the fabric
   region is partially reconfigured (PCAP time); in every case the per-FU
   instruction memories are rewritten (AXI time);
3. **execute** a stream of data blocks — runs the cycle-accurate simulator,
   verifies the results against the golden reference model, and converts the
   measured cycles into wall-clock time at the overlay's modelled Fmax.

Everything is accounted in :class:`RuntimeStats`, which is what the
multi-kernel example and the runtime bench report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..api import Toolchain
from ..dfg.analysis import dfg_depth
from ..dfg.graph import DFG
from ..engine.cache import ScheduleCache, default_cache
from ..errors import ConfigurationError, KernelError
from ..kernels.library import get_kernel
from ..overlay.architecture import DEFAULT_FIXED_DEPTH, LinearOverlay
from ..overlay.context_switch import ContextSwitchEstimate, context_switch_time_s
from ..overlay.fu import get_variant
from ..overlay.resources import overlay_fmax_mhz
from ..program.binary import ConfigurationImage
from ..program.codegen import OverlayProgram
from ..schedule import analytic_ii
from ..schedule.types import OverlaySchedule
from ..sim.overlay import SimulationResult, simulate_schedule
from ..specs import OverlaySpec, SimSpec


@dataclass
class KernelHandle:
    """A kernel registered with the runtime (compiled ahead of time)."""

    name: str
    dfg: DFG
    schedule: OverlaySchedule
    program: OverlayProgram
    configuration: ConfigurationImage

    @property
    def ii(self) -> float:
        return analytic_ii(self.schedule)

    @property
    def depth(self) -> int:
        return dfg_depth(self.dfg)


@dataclass
class RuntimeStats:
    """Accounting of everything the runtime did."""

    context_switches: int = 0
    partial_reconfigurations: int = 0
    reconfiguration_time_s: float = 0.0
    instruction_load_time_s: float = 0.0
    execution_time_s: float = 0.0
    blocks_processed: int = 0
    executions: int = 0
    per_kernel_blocks: Dict[str, int] = field(default_factory=dict)

    @property
    def overhead_time_s(self) -> float:
        """Time spent switching kernels rather than computing."""
        return self.reconfiguration_time_s + self.instruction_load_time_s

    @property
    def total_time_s(self) -> float:
        return self.overhead_time_s + self.execution_time_s

    @property
    def overhead_fraction(self) -> float:
        total = self.total_time_s
        return self.overhead_time_s / total if total > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.executions} executions, {self.blocks_processed} blocks, "
            f"{self.context_switches} context switches "
            f"({self.partial_reconfigurations} with partial reconfiguration); "
            f"compute {self.execution_time_s * 1e6:.1f} us, "
            f"switch overhead {self.overhead_time_s * 1e6:.1f} us "
            f"({self.overhead_fraction * 100:.1f}%)"
        )


class OverlayRuntime:
    """Software-managed execution of kernels on one overlay instance.

    Parameters
    ----------
    overlay:
        An :class:`~repro.specs.OverlaySpec` describing the overlay instance
        this runtime manages.  ``depth=None`` resolves to the paper's
        defaults (fixed depth 8 for write-back variants, an initial depth of
        8 otherwise).  For write-back variants the depth is the fixed depth
        (the overlay never changes); for the other variants it is the
        *initial* depth, and loading a kernel with a different critical-path
        depth triggers a modelled partial reconfiguration that resizes the
        overlay.  Anything other than an :class:`~repro.specs.OverlaySpec`
        raises :class:`~repro.errors.ConfigurationError`.
    sim:
        A :class:`~repro.specs.SimSpec` with the execution policy:
        ``engine`` selects the simulation core used by :meth:`execute`
        (``"cycle"`` for the value-level cycle-accurate reference simulator,
        ``"fast"`` for the event-driven engine — identical results, much
        faster, but a weaker per-run reference check since the fast engine
        derives its outputs from the same functional evaluation as the
        reference model), and ``verify`` controls golden-reference checking
        (turn off for long throughput-oriented runs).
    cache:
        Compiled-schedule cache consulted by :meth:`register`.  Defaults to
        the process-wide :func:`repro.engine.cache.default_cache`, so
        registering the same kernel on the same overlay configuration —
        across repeated runs, sweeps, or several runtime instances — runs
        the mapping flow (scheduling, register allocation, codegen) once.
        :meth:`repro.api.Toolchain.runtime` injects its session cache here.
    """

    def __init__(
        self,
        overlay: OverlaySpec,
        sim: Optional[SimSpec] = None,
        cache: Optional[ScheduleCache] = None,
    ):
        if not isinstance(overlay, OverlaySpec):
            raise ConfigurationError(
                "OverlayRuntime needs an OverlaySpec describing the overlay it manages"
            )
        if sim is None:
            sim = SimSpec()
        elif not isinstance(sim, SimSpec):
            raise ConfigurationError("OverlayRuntime's sim argument must be a SimSpec")
        self.overlay_spec = overlay
        self.sim_spec = sim
        self.variant = get_variant(overlay.variant)
        self._depth = (
            overlay.depth
            if overlay.depth is not None
            else (DEFAULT_FIXED_DEPTH if self.variant.write_back else 8)
        )
        self.verify = sim.verify
        self.engine = sim.engine
        self.cache = cache if cache is not None else default_cache()
        self._toolchain = Toolchain(cache=self.cache)
        self.stats = RuntimeStats()
        self._kernels: Dict[str, KernelHandle] = {}
        self._loaded: Optional[str] = None

    # ------------------------------------------------------------------
    # overlay state
    # ------------------------------------------------------------------
    @property
    def overlay(self) -> LinearOverlay:
        """The overlay instance currently configured on the (modelled) fabric."""
        if self.variant.write_back:
            return LinearOverlay.fixed(self.variant, self._depth)
        return LinearOverlay(variant=self.variant, depth=self._depth)

    @property
    def loaded_kernel(self) -> Optional[str]:
        return self._loaded

    @property
    def fmax_mhz(self) -> float:
        return overlay_fmax_mhz(self.variant, self._depth)

    # ------------------------------------------------------------------
    # kernel registration (ahead-of-time compilation)
    # ------------------------------------------------------------------
    def register(self, kernel: Union[str, DFG], name: Optional[str] = None) -> KernelHandle:
        """Compile a kernel for this runtime's overlay and cache the result.

        Compilation goes through the compiled-schedule cache, so registering
        a structurally identical kernel on the same overlay configuration —
        in this runtime, another runtime, or a sweep worker that shares the
        disk layer — reuses the schedule, program and configuration image
        instead of re-running the mapping flow.
        """
        dfg = get_kernel(kernel) if isinstance(kernel, str) else kernel
        handle = self._toolchain.compile(dfg, self._kernel_overlay_spec())
        return self._register_compiled(name or dfg.name, handle)

    def register_source(self, source: str, name: Optional[str] = None) -> KernelHandle:
        """Compile a mini-C kernel source end-to-end and register it.

        This is the full ``source → AST → DFG → schedule → binary`` chain:
        the frontend stages go through the content-hashed frontend cache
        (:mod:`repro.frontend.cache`) and the mapping flow through this
        runtime's compiled-schedule cache via its source fast path
        (:meth:`~repro.engine.cache.ScheduleCache.get_or_compile_source`),
        so registering unchanged source — here or in any other runtime of
        the process — reuses every artefact without even re-hashing the DFG.
        Any edit to the source recompiles only from the stage it invalidates.
        """
        handle = self._toolchain.compile(
            source=source, overlay=self._kernel_overlay_spec(), name=name
        )
        return self._register_compiled(name or handle.schedule.dfg.name, handle)

    def _register_compiled(self, kernel_name: str, compiled) -> KernelHandle:
        """Wrap cached compile artefacts in a handle and record it."""
        handle = KernelHandle(
            name=kernel_name,
            dfg=compiled.schedule.dfg,
            schedule=compiled.schedule,
            program=compiled.program,
            configuration=compiled.configuration,
        )
        self._kernels[kernel_name] = handle
        return handle

    def _kernel_overlay_spec(self) -> OverlaySpec:
        """The overlay spec :meth:`register` compiles kernels against.

        Write-back runtimes pin their fixed depth; the others auto-size each
        kernel to its critical path (the paper's per-kernel V1/V2 policy).
        """
        if self.variant.write_back:
            return OverlaySpec(
                variant=self.variant.name, depth=self._depth, fixed=True
            )
        return OverlaySpec(variant=self.variant.name)

    def registered_kernels(self) -> List[str]:
        return list(self._kernels)

    def handle(self, name: str) -> KernelHandle:
        if name not in self._kernels:
            raise KernelError(
                f"kernel {name!r} is not registered with this runtime; "
                f"registered: {sorted(self._kernels)}"
            )
        return self._kernels[name]

    # ------------------------------------------------------------------
    # context switching
    # ------------------------------------------------------------------
    def load(self, name: str) -> ContextSwitchEstimate:
        """Switch the overlay to a registered kernel and account for the cost."""
        handle = self.handle(name)
        if self._loaded == name:
            # Already resident: no hardware action needed.
            return context_switch_time_s(self.overlay, 0, kernel_depth=self._depth)

        current_overlay = self.overlay
        estimate = context_switch_time_s(
            current_overlay,
            instruction_words=handle.configuration.total_words,
            kernel_depth=handle.depth if not self.variant.write_back else None,
        )
        self.stats.context_switches += 1
        self.stats.instruction_load_time_s += estimate.instruction_load_time_s
        if estimate.requires_partial_reconfiguration:
            self.stats.partial_reconfigurations += 1
            self.stats.reconfiguration_time_s += estimate.pcap_time_s
            if not self.variant.write_back:
                self._depth = handle.schedule.overlay.depth
        self._loaded = name
        return estimate

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        name: str,
        input_blocks: Sequence[Sequence[int]],
        num_blocks: Optional[int] = None,
        seed: int = 0,
    ) -> SimulationResult:
        """Run a data stream through the loaded kernel (loading it if needed)."""
        if self._loaded != name:
            self.load(name)
        handle = self.handle(name)
        if input_blocks is None:
            raise ConfigurationError("input_blocks must be provided (or use execute_random)")
        result = simulate_schedule(
            handle.schedule,
            input_blocks=input_blocks,
            verify=self.verify,
            engine=self.engine,
        )
        if self.verify and result.matches_reference is False:
            raise KernelError(
                f"kernel {name!r} produced results that do not match the reference model"
            )
        self._account_execution(name, result)
        return result

    def execute_random(self, name: str, num_blocks: int = 16, seed: int = 0) -> SimulationResult:
        """Convenience: execute a deterministic random stream of blocks."""
        from ..kernels.reference import random_input_blocks

        if self._loaded != name:
            self.load(name)
        handle = self.handle(name)
        blocks = random_input_blocks(handle.dfg, num_blocks, seed=seed)
        return self.execute(name, blocks)

    def _account_execution(self, name: str, result: SimulationResult) -> None:
        self.stats.executions += 1
        self.stats.blocks_processed += result.num_blocks
        self.stats.per_kernel_blocks[name] = (
            self.stats.per_kernel_blocks.get(name, 0) + result.num_blocks
        )
        self.stats.execution_time_s += result.total_cycles / (self.fmax_mhz * 1e6)

    # ------------------------------------------------------------------
    def run_workload(
        self,
        workload: Sequence[Union[str, tuple]],
        blocks_per_kernel: int = 16,
        seed: int = 0,
    ) -> RuntimeStats:
        """Execute a sequence of kernels (a round-robin style workload).

        ``workload`` entries are kernel names, or ``(name, num_blocks)``
        tuples.  Unregistered benchmark kernels are registered on first use.
        Returns the accumulated :class:`RuntimeStats`.
        """
        for index, entry in enumerate(workload):
            if isinstance(entry, tuple):
                name, count = entry
            else:
                name, count = entry, blocks_per_kernel
            if name not in self._kernels:
                self.register(name)
            self.execute_random(name, num_blocks=count, seed=seed + index)
        return self.stats


#: The session-API name for the runtime manager (``Toolchain.runtime()``
#: returns one); ``OverlayRuntime`` remains the historical alias.
RuntimeManager = OverlayRuntime
