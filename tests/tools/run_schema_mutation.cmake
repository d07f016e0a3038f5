# Mutation harness for the wire-schema drift checker.
#
# Copies a real codec TU into a scratch tree, applies one encoder
# mutation (widened field, changed kind, or renamed/reordered
# same-width field), and asserts the schema-drift rule fails against
# the committed goldens in tools/schemas with the expected diagnostic.
# The unmutated control run must exit 0, proving the harness would not
# pass mutants through a broken setup.
#
# Usage:
#   cmake -DTLCLINT=<binary> -DREPO=<repo root> -DSCRATCH=<dir>
#         -P run_schema_mutation.cmake

# Extra arguments are support TUs copied unmutated into the scratch
# tree and linted alongside — needed when the mutated codec inlines a
# helper (e.g. write_receipt) that lives in another file.
function(lint_mutant case_name file old new expect_code expect_text)
  set(tree ${SCRATCH}/${case_name})
  file(REMOVE_RECURSE ${tree})
  get_filename_component(dir ${file} DIRECTORY)
  file(MAKE_DIRECTORY ${tree}/${dir})
  file(READ ${REPO}/${file} content)
  if(NOT old STREQUAL "")
    string(FIND "${content}" "${old}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
        "${case_name}: mutation anchor not found in ${file}: ${old}")
    endif()
    string(REPLACE "${old}" "${new}" content "${content}")
  endif()
  file(WRITE ${tree}/${file} "${content}")
  set(paths ${tree}/${file})
  foreach(support ${ARGN})
    get_filename_component(support_dir ${support} DIRECTORY)
    file(MAKE_DIRECTORY ${tree}/${support_dir})
    file(COPY ${REPO}/${support} DESTINATION ${tree}/${support_dir})
    list(APPEND paths ${tree}/${support})
  endforeach()
  execute_process(
    COMMAND ${TLCLINT} --root ${tree} --schemas-dir ${REPO}/tools/schemas
            --rule schema-drift ${paths}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR
      "${case_name}: expected exit ${expect_code}, got ${code}\n${out}${err}")
  endif()
  if(NOT expect_text STREQUAL "" AND NOT out MATCHES "${expect_text}")
    message(FATAL_ERROR
      "${case_name}: diagnostic missing '${expect_text}'\n${out}")
  endif()
  message(STATUS "${case_name}: ok")
endfunction()

# Control: the pristine TU must lint clean against the goldens.
lint_mutant(control_cdr_compact src/epc/cdr.cpp "" "" 0 "")

# Widened field: u16 -> u64 shifts every later field.
lint_mutant(widen_cdr_charging_id src/epc/cdr.cpp
  "w.u16(charging_id);" "w.u64(charging_id);"
  1 "WIRE LAYOUT CHANGED")

# Changed kind on a flag byte.
lint_mutant(widen_receipt_completed src/transport/settlement_journal.cpp
  "w.u8(receipt.completed ? 1 : 0);" "w.u32(receipt.completed ? 1 : 0);"
  1 "WIRE LAYOUT CHANGED")

# Same-width reorder/rename: the layout hash cannot see it, the golden
# text comparison must.
lint_mutant(rename_msg_seq src/core/messages.cpp
  "w.u64(body.seq);" "w.u64(body.nonce);"
  1 "golden is stale")

# Widened enum byte inside the shard checkpoint record helper.
lint_mutant(widen_shard_app src/fleet/supervisor.cpp
  "w.u8(static_cast<std::uint8_t>(record.member.app));"
  "w.u16(static_cast<std::uint16_t>(record.member.app));"
  1 "WIRE LAYOUT CHANGED")

# Widened CRC in the journal frame prefix.
lint_mutant(widen_journal_crc src/recovery/journal.cpp
  "w.u32(crc32c(payload));" "w.u64(crc32c(payload));"
  1 "WIRE LAYOUT CHANGED")

# Widened checkpoint magic.
lint_mutant(widen_checkpoint_magic src/recovery/checkpoint.cpp
  "w.u32(kCheckpointMagic);" "w.u64(kCheckpointMagic);"
  1 "WIRE LAYOUT CHANGED")

# Widened cycle counter in the OFCS snapshot (which inlines the
# full-width CDR codec from src/epc/cdr.cpp).
lint_mutant(widen_ofcs_next_cycle src/epc/ofcs.cpp
  "w.u32(state.next_cycle);" "w.u64(state.next_cycle);"
  1 "WIRE LAYOUT CHANGED" src/epc/cdr.cpp)

# --- Streaming-ingest codecs (DESIGN.md §16) ---------------------------

# Control: the pristine ingest TU must lint clean against the goldens.
lint_mutant(control_ingest src/charging/ingest.cpp "" "" 0 "")

# Widened charging id in the full-width CDR codec shifts every later
# Merkle-leaf field — and would silently change every leaf hash and
# batch root.
lint_mutant(widen_full_cdr_charging_id src/epc/cdr.cpp
  "w.u16(cdr.charging_id);" "w.u32(cdr.charging_id);"
  1 "WIRE LAYOUT CHANGED")

# Widened leaf count hits both the signed commitment and the batch PoC
# wire (the count is what closes the odd-leaf ambiguity, so drift here
# is a security bug, not just a decode bug).
lint_mutant(widen_batch_poc_leaf_count src/charging/ingest.cpp
  "w.u32(poc.leaf_count);" "w.u64(poc.leaf_count);"
  1 "WIRE LAYOUT CHANGED")

# Same-width rename in the inclusion proof: layout hash can't see it,
# the golden text must.
lint_mutant(rename_inclusion_leaf_index src/charging/ingest.cpp
  "w.u32(proof.merkle.leaf_index);" "w.u32(proof.merkle.slot_index);"
  1 "golden is stale")

# --- Network-coded transport codecs (DESIGN.md §17) --------------------

# The sealed-batch codec inlines write_receipt/read_receipt from the
# journal TU, so every coded-session case lints both files together.
set(coded_support src/transport/settlement_journal.cpp)

# Control: the pristine coded-session TU must lint clean.
lint_mutant(control_coded_session src/transport/coded_session.cpp "" "" 0 ""
  ${coded_support})

# Widened generation size shifts the chunk width and every field after
# it — the receiver would misparse the coefficient vector as body.
lint_mutant(widen_coded_generation_size src/transport/coded_session.cpp
  "w.u16(packet.generation_size);" "w.u32(packet.generation_size);"
  1 "WIRE LAYOUT CHANGED" ${coded_support})

# Widened ack rank changes where the CRC sits in the ack frame.
lint_mutant(widen_ack_rank src/transport/coded_session.cpp
  "w.u16(ack.rank);" "w.u32(ack.rank);"
  1 "WIRE LAYOUT CHANGED" ${coded_support})

# Same-width swap of generation for transfer id: the layout hash is
# blind to it, the golden text comparison is not.
lint_mutant(rename_coded_generation src/transport/coded_session.cpp
  "w.u32(packet.generation);" "w.u32(packet.sequence);"
  1 "golden is stale" ${coded_support})

# Widened coded counter inside the v2 chunk record: the appended coded
# census must stay ten fixed u64s or journaled chunks stop splicing.
lint_mutant(widen_chunk_coded_counter src/transport/settlement_journal.cpp
  "w.u64(coded.cycles_coded);" "w.u32(static_cast<std::uint32_t>(coded.cycles_coded));"
  1 "WIRE LAYOUT CHANGED")

message(STATUS "schema mutation suite: all mutants caught")
