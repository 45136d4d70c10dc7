"""Where the decorations clang writes may stand, checked against LLVM 14.

Each case of CASES is a module with one decoration in one place, and says
whether `llvm-as -opaque-pointers` accepts it; parse_module must decide it
the same way.  EXCEPTIONS are the cases where the parser parts from LLVM 14
on purpose: integer widths outside i1-i64, variadic functions and opcodes
outside the subset are rejected, and the flags and attributes that newer
clang writes are accepted.  `clang_style.ll` holds these decorations in one program, whose
main must return what `lli` returns.
"""

import pathlib

import pytest

from irtime import Interpreter, parse_file, parse_module
from irtime.errors import IrTimeError

from conftest import lli, llvm_as, needs_lli, needs_llvm_as

FIXTURE = pathlib.Path(__file__).with_name("clang_style.ll")

_F = "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}\n"
_P = "define ptr @p(ptr %x) {\nentry:\n  ret ptr %x\n}\n"
_GROUP = "attributes #0 = { nounwind }\n"
_TBAA = ('!0 = !{!1, !1, i64 0}\n!1 = !{!"int", !2, i64 0}\n'
         '!2 = !{!"omnipotent char", !3, i64 0}\n!3 = !{!"Simple C/C++ TBAA"}\n')


def _main(body, head="", tail=""):
    return f"{head}define i32 @main() {{\nentry:\n{body}\n  ret i32 0\n}}\n{tail}"


def _define(signature, head="", tail="", ret="ret i32 0"):
    """A function whose definition line is `signature`, and an empty main."""
    return f"{head}{signature} {{\nentry:\n  {ret}\n}}\n{tail}" + _main("")


def _global(line, head="", tail=""):
    return f"{head}{line}\n{tail}" + _main("")


# name -> (module, whether llvm-as accepts it)
CASES = {
    # the seven on which the parser and llvm-as once disagreed
    "attribute_group_before_a_return_type": (_define("define #0 i32 @g()", tail=_GROUP), False),
    "attribute_group_on_an_argument": (_main("  %a = call i32 @f(i32 #0 5)", _F, _GROUP), False),
    "attribute_group_after_an_add": (_main("  %a = add i32 1, 2 #0", tail=_GROUP), False),
    "unknown_global_property": (_global("@g = global i32 5, foo bar, align 4"), False),
    "volatile_add": (_main("  %a = add volatile i32 1, 2"), False),
    "return_attributes_of_a_definition": (_define(
        "define noundef nonnull align 4 dereferenceable(4) ptr @g(ptr %x)", ret="ret ptr %x"),
        True),
    "return_attributes_of_a_call": (_main(
        "  %m = alloca i32\n  %a = call noundef nonnull align 4 dereferenceable(4) ptr @p(ptr %m)",
        _P), True),
    # what clang -O2 writes, as in clang_style.ll
    "module_header_groups_and_metadata": (
        'source_filename = "a.c"\ntarget datalayout = "e-m:e-p:32:32-n8:16:32-S128"\n'
        'target triple = "i386-unknown-linux-gnu"\n'
        + _define("define dso_local i32 @g() local_unnamed_addr #0", tail=_GROUP)
        + '!llvm.module.flags = !{!9}\n!9 = !{i32 1, !"wchar_size", i32 4}\n', True),
    "internal_fastcc_unnamed_addr": (_define(
        "define internal fastcc i32 @g() unnamed_addr #0", tail=_GROUP), True),
    "parameter_attributes": (_define(
        "define i32 @g(ptr nocapture noundef readonly align 16 dereferenceable(64) %t)"), True),
    "sret_parameter": (_define("define void @g(ptr noalias nocapture sret(%S) align 4 %r, "
                               "i32 noundef signext %x)", "%S = type { i32 }\n", ret="ret void"),
                       True),
    "parenthesized_align": (_define("define i32 @g(ptr align(4) %p)"), True),
    "tail_call_with_argument_attributes": (_main(
        "  %m = alloca [16 x i32], align 16\n"
        "  %a = tail call fastcc ptr @q(ptr noundef nonnull align 16 dereferenceable(64) %m) #0",
        "define internal fastcc ptr @q(ptr %x) {\nentry:\n  ret ptr %x\n}\n", _GROUP), True),
    "musttail_call": ("define i32 @g(i32 %x) {\nentry:\n  %a = musttail call i32 @f(i32 %x)\n"
                      "  ret i32 %a\n}\n" + _F + _main(""), True),
    "call_with_a_function_type": (_main("  %a = call i32 (i32) @f(i32 5)", _F), True),
    "call_with_cc_and_a_number": (_main("  %a = call cc 10 i32 @f(i32 5)", _F), True),
    "attribute_group_then_metadata_on_a_call": (
        _main("  %a = call i32 @f(i32 5) #0, !foo !9", _F, _GROUP + "!9 = !{}\n"), True),
    "align_and_tbaa_on_a_load_and_store": (_main(
        "  %m = alloca i32, align 4\n  store volatile i32 1, ptr %m, align 4, !tbaa !0\n"
        "  %v = load i32, ptr %m, align 4, !tbaa !0", tail=_TBAA), True),
    "llvm_loop_on_a_branch": ("define i32 @main() {\nentry:\n  br label %b, !llvm.loop !0\n"
                              "b:\n  ret i32 0\n}\n!0 = distinct !{!0, !1}\n"
                              '!1 = !{!"llvm.loop.mustprogress"}\n', True),
    "private_unnamed_addr_constant": (_global(
        '@s = private unnamed_addr constant [3 x i8] c"hi\\00", align 1'), True),
    "thread_local_global": (_global(
        "@g = internal thread_local(localdynamic) global i32 0, align 4"), True),
    "section_and_comdat_globals": (_global(
        '@g = dso_local global i32 7, section "x", align 4\n'
        "@h = linkonce_odr dso_local global i32 2, comdat, align 4", "$h = comdat any\n"), True),
    "attribute_group_on_a_global": (_global('@g = global i32 5, align 4 #0',
                                            tail='attributes #0 = { "x" }\n'), True),
    "definition_trailer": (_define('define i32 @g() #0 align 16 section "x" comdat gc "g" !dbg !9',
                                   "$g = comdat any\n", _GROUP + "!9 = !{}\n"), True),
    # decorations in a place LLVM does not allow
    "attribute_group_on_a_parameter": (_define("define i32 @g(i32 #0 %x)", tail=_GROUP), False),
    "metadata_on_a_parameter": (_define("define i32 @g(i32 !9 %x)", tail="!9 = !{}\n"), False),
    "metadata_on_an_argument": (_main("  %a = call i32 @f(i32 !9 5)", _F, "!9 = !{}\n"), False),
    "metadata_without_a_comma": (_main("  %a = add i32 1, 2 !foo !9", tail="!9 = !{}\n"), False),
    "metadata_without_a_comma_after_a_call": (
        _main("  %a = call i32 @f(i32 5) !foo !9", _F, "!9 = !{}\n"), False),
    "metadata_before_a_return_type": (_define("define !dbg !9 i32 @g()", tail="!9 = !{}\n"),
                                      False),
    "align_on_an_add": (_main("  %a = add i32 1, 2, align 4"), False),
    "unknown_parameter_attribute": (_define("define i32 @g(i32 foo %x)"), False),
    "unknown_argument_attribute": (_main("  %a = call i32 @f(i32 foo 5)", _F), False),
    "unknown_return_attribute": (_define("define foo i32 @g()"), False),
    "unnamed_addr_before_a_return_type": (_define("define unnamed_addr i32 @g()"), False),
    "global_before_a_return_type": (_define("define global i32 @g()"), False),
    "section_without_a_comma": (_global('@g = global i32 5 section "x"'), False),
    "calling_convention_on_a_global": (_global("@g = fastcc global i32 5"), False),
    "cc_without_a_number": (_main("  %a = call cc i32 @f(i32 5)", _F), False),
    # flags on an instruction that does not take them
    "exact_add": (_main("  %a = add exact i32 1, 2"), False),
    "exact_sdiv": (_main("  %a = sdiv exact i32 4, 2"), True),
    "nuw_nsw_shl": (_main("  %a = shl nuw nsw i32 1, 2"), True),
    "nuw_fadd": (_main("  %a = fadd nuw float 1.0, 2.0"), False),
    "fast_fadd": (_main("  %a = fadd fast float 1.0, 2.0"), True),
    "nnan_fcmp": (_main("  %a = fcmp nnan oeq float 1.0, 2.0"), True),
    "nuw_icmp": (_main("  %a = icmp nuw eq i32 1, 2"), False),
    "nuw_store": (_main("  %m = alloca i32\n  store nuw i32 1, ptr %m"), False),
    "inbounds_load": (_main("  %m = alloca i32\n  %a = load inbounds i32, ptr %m"), False),
    "volatile_call": (_main("  %a = call volatile i32 @f(i32 5)", _F), False),
    "fast_call_of_an_integer": (_main("  %a = call fast i32 @f(i32 5)", _F), False),
    "fast_phi_of_a_float": ("define float @g() {\nentry:\n  br label %b\nb:\n"
                            "  %a = phi fast float [ 1.0, %entry ]\n  ret float %a\n}\n"
                            + _main(""), True),
    "fast_phi_of_an_integer": ("define i32 @g() {\nentry:\n  br label %b\nb:\n"
                               "  %a = phi fast i32 [ 1, %entry ]\n  ret i32 %a\n}\n"
                               + _main(""), False),
    # a type definition ends where its type ends; one that no code uses is
    # not read, so a struct of members outside the subset may stand
    "trailing_token_after_a_used_type": (_global(
        "@g = global %T zeroinitializer", "%T = type { i32 } garbage\n"), False),
    "trailing_token_after_a_used_opaque_type": (_global(
        "@g = external global %T", "%T = type opaque junk\n"), False),
    "used_opaque_type": (_global("@g = external global %T", "%T = type opaque\n"), True),
    "unused_struct_of_a_long_double": (_global("%struct.S = type { x86_fp80, i32 }"), True),
    # only an external declaration may leave out a global's initializer
    "global_without_an_initializer": (_global("@g = global i32"), False),
    "internal_global_without_an_initializer": (_global("@g = internal global i32"), False),
    "external_global_without_an_initializer": (_global("@g = external global i32"), True),
    "extern_weak_global_without_an_initializer": (_global("@g = extern_weak global i32"), True),
    # and a declaration takes none
    "external_global_with_an_initializer": (_global("@g = external global i32 0"), False),
    "extern_weak_global_with_an_initializer": (_global("@g = extern_weak global i32 5"), False),
}

# name -> (module, whether parse_module accepts it), which llvm-as 14
# decides the other way
EXCEPTIONS = {
    "integer_width_outside_i1_to_i64": (_define("define i32 @g(i7 %x)"), False),
    "variadic_function": (_define("define i32 @g(i32 %x, ...)"), False),
    "opcode_outside_the_subset": (_main("  %a = select i1 true, i32 1, i32 2"), False),
    "nneg_zext": (_main("  %a = zext nneg i8 1 to i32"), True),
    "disjoint_or": (_main("  %a = or disjoint i32 1, 2"), True),
    "nuw_getelementptr": (_main("  %m = alloca i32\n"
                                "  %a = getelementptr inbounds nuw i32, ptr %m, i32 0"), True),
    "newer_parameter_attributes": (_define(
        "define i32 @g(ptr captures(none) initializes((0, 4)) dead_on_unwind writable %p)"), True),
}


def _parses(text):
    try:
        parse_module(text)
    except IrTimeError:
        return False
    return True


@pytest.mark.parametrize("name", CASES)
def test_parse_module_accepts_a_decoration_where_llvm_does(name):
    text, accepted = CASES[name]
    assert _parses(text) == accepted


@pytest.mark.parametrize("name", EXCEPTIONS)
def test_each_stated_exception(name):
    text, accepted = EXCEPTIONS[name]
    assert _parses(text) == accepted


@needs_llvm_as
@pytest.mark.parametrize("name", CASES)
def test_llvm_as_decides_each_case_as_stated(name):
    text, accepted = CASES[name]
    assert (llvm_as(text) is None) == accepted


@needs_llvm_as
@pytest.mark.parametrize("name", EXCEPTIONS)
def test_llvm_as_decides_each_exception_the_other_way(name):
    text, accepted = EXCEPTIONS[name]
    assert (llvm_as(text) is None) != accepted


def test_the_fixture_parses_and_runs():
    m = parse_file(FIXTURE)
    assert Interpreter(m).execute("main") == 145
    assert m.global_var("table").align == 16
    assert m.global_var(".str").is_const
    assert [ins.align for ins in m.function("make").blocks[0].instructions] == [4, 0, 0, 4, 0]


@needs_llvm_as
def test_llvm_as_accepts_the_fixture():
    assert llvm_as(FIXTURE.read_text()) is None


@needs_lli
def test_the_fixtures_main_returns_what_lli_returns():
    # without its target lines: LLVM 14's lli aborts on the i386 triple
    # on an x86-64 host
    text = "".join(line for line in FIXTURE.read_text().splitlines(keepends=True)
                   if not line.startswith("target "))
    assert lli(text) == Interpreter(parse_module(text)).execute("main")
