"""Generated `.ll` programs that walk i32 arrays, and a Python model of each.

Every program clears an array (memset, or calloc), fills the elements it
will walk with a linear congruential sequence, walks them with a load, a
branch on one seeded bit of the loaded value and a read-modify-write
store, then copies the first half into a second
buffer with `llvm.memcpy` and returns the checksum plus one copied element.
The Python model replays the same arithmetic and yields the address stream,
the branch outcomes per site and the memory-routine volumes, so the
simulator's trace can be checked against `reference.py` without reading
anything the simulator computed.

Addresses follow the interpreter's fixed layout: the first global sits at
the globals base, the next one right after it; heap blocks are handed out
from the heap base, 8-byte aligned.
"""

import random
from dataclasses import dataclass

GLOBAL_BASE = 0x1000_0000
HEAP_BASE = 0x3000_0000
MASK32 = 0xFFFF_FFFF
LCG_MUL = 1664525
CACHE_BYTES = 16384

PLACEMENTS = ("global", "malloc", "calloc")
FOOTPRINTS = {"half": CACHE_BYTES // 2, "4x": CACHE_BYTES * 4}
STRIDES = {"seq": 1, "line": 8}     # i32 elements; 8 x 4 B = one 32-byte line


@dataclass(frozen=True)
class WalkSpec:
    placement: str
    footprint: str
    walk: str
    x0: int         # LCG start
    inc: int        # LCG increment (odd)
    bit: int        # the data branch tests this bit of the loaded value
    k_odd: int      # added when the bit is set
    k_even: int     # xor-ed in when it is clear
    probe: int      # element of the copy added to the checksum

    @property
    def name(self):
        return f"{self.placement}_{self.footprint}_{self.walk}"

    @property
    def n(self):
        return FOOTPRINTS[self.footprint] // 4

    @property
    def stride(self):
        return STRIDES[self.walk]


def specs(seed):
    """One program per (placement, footprint, walk); constants from `seed`."""
    rng = random.Random(f"memwalk:{seed}")
    out = []
    for placement in PLACEMENTS:
        for footprint in FOOTPRINTS:
            for walk in STRIDES:
                n = FOOTPRINTS[footprint] // 4
                out.append(WalkSpec(
                    placement, footprint, walk,
                    x0=rng.randrange(1 << 31), inc=rng.randrange(1 << 20) | 1,
                    bit=rng.randrange(12, 28), k_odd=rng.randrange(1, 1 << 16),
                    k_even=rng.randrange(1, 1 << 16), probe=rng.randrange(n // 2),
                ))
    return out


def program(spec):
    """Text of the module for `spec`."""
    n, half = spec.n, spec.n // 2
    nbytes, hbytes = 4 * n, 4 * half
    head = [f"; memwalk {spec.name}: {n} x i32, stride {spec.stride}", ""]
    if spec.placement == "global":
        head += [f"@buf = global [{n} x i32] zeroinitializer",
                 f"@copy = global [{half} x i32] zeroinitializer"]
    head += [
        "declare ptr @malloc(i32)",
        "declare ptr @calloc(i32, i32)",
        "declare void @llvm.memset.p0.i32(ptr, i8, i32, i1)",
        "declare void @llvm.memcpy.p0.p0.i32(ptr, ptr, i32, i1)",
        "",
        "define i32 @main() {",
        "entry:",
    ]
    if spec.placement == "global":
        a, b = "@buf", "@copy"
        body = [f"  call void @llvm.memset.p0.i32(ptr @buf, i8 0, i32 {nbytes}, i1 false)"]
    elif spec.placement == "malloc":
        a, b = "%a", "%b"
        body = [f"  %a = call ptr @malloc(i32 {nbytes})",
                f"  call void @llvm.memset.p0.i32(ptr %a, i8 0, i32 {nbytes}, i1 false)",
                f"  %b = call ptr @malloc(i32 {hbytes})"]
    else:
        a, b = "%a", "%b"
        body = [f"  %a = call ptr @calloc(i32 {n}, i32 4)",
                f"  %b = call ptr @malloc(i32 {hbytes})"]
    body += [
        "  br label %fill",
        "",
        "fill:",
        "  %i = phi i32 [ 0, %entry ], [ %i.next, %fill ]",
        f"  %x = phi i32 [ {spec.x0}, %entry ], [ %x.next, %fill ]",
        f"  %xm = mul i32 %x, {LCG_MUL}",
        f"  %x.next = add i32 %xm, {spec.inc}",
        f"  %pf = getelementptr i32, ptr {a}, i32 %i",
        "  store i32 %x.next, ptr %pf",
        f"  %i.next = add i32 %i, {spec.stride}",
        f"  %fc = icmp slt i32 %i.next, {n}",
        "  br i1 %fc, label %fill, label %walk",
        "",
        "walk:",
        "  %j = phi i32 [ 0, %fill ], [ %j.next, %join ]",
        "  %sum = phi i32 [ 0, %fill ], [ %sum.next, %join ]",
        f"  %q = getelementptr i32, ptr {a}, i32 %j",
        "  %v = load i32, ptr %q",
        f"  %bit = and i32 %v, {1 << spec.bit}",
        "  %odd = icmp ne i32 %bit, 0",
        "  br i1 %odd, label %odd.path, label %even.path",
        "",
        "odd.path:",
        f"  %vo = add i32 %v, {spec.k_odd}",
        "  br label %join",
        "",
        "even.path:",
        f"  %ve = xor i32 %v, {spec.k_even}",
        "  br label %join",
        "",
        "join:",
        "  %v2 = phi i32 [ %vo, %odd.path ], [ %ve, %even.path ]",
        "  store i32 %v2, ptr %q",
        "  %sum.next = add i32 %sum, %v2",
        f"  %j.next = add i32 %j, {spec.stride}",
        f"  %jc = icmp slt i32 %j.next, {n}",
        "  br i1 %jc, label %walk, label %done",
        "",
        "done:",
        f"  call void @llvm.memcpy.p0.p0.i32(ptr {b}, ptr {a}, i32 {hbytes}, i1 false)",
        f"  %pr = getelementptr i32, ptr {b}, i32 {spec.probe}",
        "  %w = load i32, ptr %pr",
        "  %res = add i32 %sum.next, %w",
        "  ret i32 %res",
        "}",
        "",
    ]
    return "\n".join(head + body)


@dataclass(frozen=True)
class Expected:
    checksum: int
    accesses: tuple     # (address, is_store) in program order
    branches: dict      # site -> tuple of outcomes
    volumes: dict       # memset/memcpy/malloc/calloc -> bytes


def model(spec):
    """What the program must do, computed in Python."""
    n, half = spec.n, spec.n // 2
    if spec.placement == "global":
        a, b = GLOBAL_BASE, GLOBAL_BASE + 4 * n
    else:
        a, b = HEAP_BASE, HEAP_BASE + 4 * n
    accesses = []
    arr = [0] * n
    steps = range(0, n, spec.stride)
    x = spec.x0
    for i in steps:
        x = (x * LCG_MUL + spec.inc) & MASK32
        arr[i] = x
        accesses.append((a + 4 * i, True))
    last = (True,) * (len(steps) - 1) + (False,)
    branches = {"fill": last, "odd": [], "walk": last}
    total = 0
    for j in steps:
        v = arr[j]
        accesses.append((a + 4 * j, False))
        odd = bool(v & (1 << spec.bit))
        branches["odd"].append(odd)
        v2 = (v + spec.k_odd) & MASK32 if odd else v ^ spec.k_even
        arr[j] = v2
        accesses.append((a + 4 * j, True))
        total = (total + v2) & MASK32
    accesses.append((b + 4 * spec.probe, False))
    malloc = {"global": 0, "malloc": 4 * n + 4 * half, "calloc": 4 * half}
    volumes = {"memset": 4 * n if spec.placement != "calloc" else 0,
               "memcpy": 4 * half,
               "malloc": malloc[spec.placement],
               "calloc": 4 * n if spec.placement == "calloc" else 0}
    return Expected(
        checksum=(total + arr[spec.probe]) & MASK32,
        accesses=tuple(accesses),
        branches={k: tuple(v) for k, v in branches.items()},
        volumes=volumes,
    )
