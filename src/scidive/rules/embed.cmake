# Writes OUT, a C++ source that defines scidive::ruledsl::kDefaultRulesetText:
# the .sdr files named in FILES (comma-separated, in ruleset order) joined
# into one text, each headed by a comment naming its file.
#
#   cmake -DOUT=default_ruleset.cc -DFILES=a.sdr,b.sdr -P embed.cmake
string(REPLACE "," ";" files "${FILES}")
set(text "")
foreach(file IN LISTS files)
  file(READ "${file}" body)
  get_filename_component(name "${file}" NAME)
  string(APPEND text "# ---- ${name} ----\n${body}")
endforeach()
if(text MATCHES "\\)sdr\"")
  message(FATAL_ERROR "embed.cmake: a ruleset file contains the raw-string delimiter )sdr\"")
endif()
file(WRITE "${OUT}"
  "// Generated by src/scidive/rules/embed.cmake from src/scidive/rules/*.sdr; do not edit.\n"
  "#include \"ruledsl/loader.h\"\n\n"
  "namespace scidive::ruledsl {\n\n"
  "const std::string_view kDefaultRulesetText = R\"sdr(${text})sdr\";\n\n"
  "}  // namespace scidive::ruledsl\n")
