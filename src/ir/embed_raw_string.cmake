# Wraps the text of IN in a C++ raw string literal with delimiter DELIM and
# writes it to OUT, for #include inside a string-literal initializer.
# Usage: cmake -DIN=<file> -DOUT=<file> -DDELIM=<tag> -P embed_raw_string.cmake
file(READ "${IN}" text)
file(WRITE "${OUT}" "R\"${DELIM}(${text})${DELIM}\"\n")
