# The `lint` umbrella target: everything the CI lint job runs.
#
#   lint_fluxfp            fluxfp-lint (project invariants) over the tree
#   lint_include_hygiene   every public header compiled standalone, first
#                          include in its own TU — proves self-containment
#   lint_clang_tidy        clang-tidy over compile_commands.json (skipped
#                          with a notice when clang-tidy is not installed;
#                          CI always installs it)
#
# `cmake --build build --target lint` must pass on every push.

# --- fluxfp-lint ------------------------------------------------------------
# The suppression budget bounds inline allow() growth: raising it is a
# reviewed change to this file, not a drive-by comment. Budget 25 covers
# the audited tally (below) plus modest headroom for in-flight branches.
set(FLUXFP_LINT_SUPPRESSION_BUDGET 25 CACHE STRING
  "Maximum inline fluxfp-lint allow() suppressions tolerated tree-wide")

# The exact audited tally; the lint fails when it drifts in EITHER
# direction, so silently added and silently deleted allows both surface.
# Current 16 = 6 no-raw-thread (tests/stream driving real threads)
#            + 2 no-nondeterminism (tests/numeric seeding checks)
#            + 8 atomics-policy (lifecycle flags and relaxed hot-path
#              stats beside a mutex: server.hpp, manager.hpp,
#              parallel.cpp — each carries its own `-- why`).
set(FLUXFP_LINT_SUPPRESSION_EXPECTED 16 CACHE STRING
  "Exact audited count of inline fluxfp-lint allow() suppressions")

add_custom_target(lint_fluxfp
  COMMAND $<TARGET_FILE:fluxfp_lint>
          --root ${CMAKE_SOURCE_DIR}
          --suppression-budget ${FLUXFP_LINT_SUPPRESSION_BUDGET}
          --expect-suppressions ${FLUXFP_LINT_SUPPRESSION_EXPECTED}
          src tests bench examples
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  COMMENT "fluxfp-lint: checking project invariants"
  VERBATIM)
add_dependencies(lint_fluxfp fluxfp_lint)

# --- include hygiene --------------------------------------------------------
# One generated TU per public header, including nothing else. A header that
# depends on its includer's includes fails to compile here.
file(GLOB_RECURSE FLUXFP_HYGIENE_HEADERS CONFIGURE_DEPENDS
  ${CMAKE_SOURCE_DIR}/src/*.hpp)
list(APPEND FLUXFP_HYGIENE_HEADERS ${CMAKE_SOURCE_DIR}/bench/bench_util.hpp)

set(_hygiene_srcs)
foreach(_hdr IN LISTS FLUXFP_HYGIENE_HEADERS)
  file(RELATIVE_PATH _rel ${CMAKE_SOURCE_DIR} ${_hdr})
  string(REPLACE "/" "_" _mangled ${_rel})
  set(_tu ${CMAKE_BINARY_DIR}/include_hygiene/${_mangled}.cpp)
  file(CONFIGURE OUTPUT ${_tu} CONTENT
    "// Generated by cmake/Lint.cmake: self-containment check for ${_rel}.
#include \"${_hdr}\"
")
  list(APPEND _hygiene_srcs ${_tu})
endforeach()

add_library(lint_include_hygiene OBJECT EXCLUDE_FROM_ALL ${_hygiene_srcs})
target_include_directories(lint_include_hygiene PRIVATE
  ${CMAKE_SOURCE_DIR}/src
  ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(lint_include_hygiene PRIVATE Threads::Threads)

# --- clang-tidy -------------------------------------------------------------
find_program(FLUXFP_CLANG_TIDY NAMES clang-tidy clang-tidy-19 clang-tidy-18
  clang-tidy-17 clang-tidy-16 clang-tidy-15)

if(FLUXFP_CLANG_TIDY)
  file(GLOB_RECURSE FLUXFP_TIDY_SOURCES CONFIGURE_DEPENDS
    ${CMAKE_SOURCE_DIR}/src/*.cpp
    ${CMAKE_SOURCE_DIR}/tools/*.cpp
    ${CMAKE_SOURCE_DIR}/bench/*.cpp
    ${CMAKE_SOURCE_DIR}/examples/*.cpp
    ${CMAKE_SOURCE_DIR}/tests/*.cpp)
  # Fixtures contain violations on purpose and are not built.
  list(FILTER FLUXFP_TIDY_SOURCES EXCLUDE REGEX "/fixtures/")
  add_custom_target(lint_clang_tidy
    COMMAND ${FLUXFP_CLANG_TIDY} --quiet -p ${CMAKE_BINARY_DIR}
            ${FLUXFP_TIDY_SOURCES}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-tidy: checking under .clang-tidy (WarningsAsErrors: *)"
    VERBATIM)
else()
  add_custom_target(lint_clang_tidy
    COMMAND ${CMAKE_COMMAND} -E echo
            "clang-tidy not found -- skipping locally (the CI lint job runs it)"
    COMMENT "clang-tidy: not installed"
    VERBATIM)
endif()

# --- umbrella ---------------------------------------------------------------
add_custom_target(lint)
add_dependencies(lint lint_fluxfp lint_include_hygiene lint_clang_tidy)
