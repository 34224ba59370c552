/**
 * @file
 * Minimal command-line flag parser for the tools/ binaries.
 *
 * Supports --name value and --name=value forms, typed accessors with
 * defaults, and an auto-generated --help. Unknown flags are fatal —
 * catching typos beats silently ignoring them.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace hermes {
namespace util {

/** Declarative flag parser. */
class ArgParser
{
  public:
    /**
     * @param program     argv[0]-style program name for help output.
     * @param description One-line tool description.
     */
    ArgParser(std::string program, std::string description);

    /**
     * Declare a flag.
     * @param name          Flag name without leading dashes.
     * @param default_value Default (also shown in --help).
     * @param help          Help text.
     */
    void addFlag(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Parse argv. Exits with usage on --help or unknown/malformed flags.
     */
    void parse(int argc, char **argv);

    /** String value of @p name (declared default if not given). */
    const std::string &get(const std::string &name) const;

    /** Typed accessors (fatal on conversion failure). */
    long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** True if the user explicitly supplied the flag. */
    bool given(const std::string &name) const;

    /** Print usage to stdout. */
    void printHelp() const;

  private:
    struct Flag
    {
        std::string default_value;
        std::string help;
        std::string value;
        bool given = false;
    };

    const Flag &find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

/**
 * Match one `--name=value` argument for hand-rolled argv loops (binaries
 * that mix such options with positional arguments).
 * @param arg  One argv entry.
 * @param name Option name with its dashes, e.g. "--port".
 * @return The value after '=', or nullptr when @p arg is not @p name=.
 */
const char *matchOption(const char *arg, const char *name);

} // namespace util
} // namespace hermes
