//! OpenQASM 2.0 subset parser.
//!
//! The parser is a hand-written recursive-descent parser over a small token
//! stream; it supports the statements listed in the [module docs](super).

use crate::{Circuit, Condition, OneQubitGate, Operation, Qubit};
use mathkit::Angle;
use std::fmt;

/// Error returned by [`parse`] with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseQasmError {}

fn err(line: usize, message: impl Into<String>) -> ParseQasmError {
    ParseQasmError {
        line,
        message: message.into(),
    }
}

/// Evaluates a restricted arithmetic expression used for gate angles:
/// numbers, `pi`, unary minus, `+`, `-`, `*`, `/` and parentheses.
fn eval_expr(text: &str, line: usize) -> Result<f64, ParseQasmError> {
    struct Parser<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
        line: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
                self.chars.next();
            }
        }

        /// Rejects NaN and infinite intermediate results (e.g. `pi/0` or an
        /// overflowing literal) so no garbage angle reaches a gate.
        fn ensure_finite(&self, value: f64) -> Result<f64, ParseQasmError> {
            if value.is_finite() {
                Ok(value)
            } else {
                Err(err(
                    self.line,
                    "angle expression evaluates to a non-finite value",
                ))
            }
        }

        fn parse_sum(&mut self) -> Result<f64, ParseQasmError> {
            let mut value = self.parse_product()?;
            loop {
                self.skip_ws();
                match self.chars.peek() {
                    Some('+') => {
                        self.chars.next();
                        value += self.parse_product()?;
                    }
                    Some('-') => {
                        self.chars.next();
                        value -= self.parse_product()?;
                    }
                    _ => return self.ensure_finite(value),
                }
            }
        }

        fn parse_product(&mut self) -> Result<f64, ParseQasmError> {
            let mut value = self.parse_atom()?;
            loop {
                self.skip_ws();
                match self.chars.peek() {
                    Some('*') => {
                        self.chars.next();
                        value *= self.parse_atom()?;
                    }
                    Some('/') => {
                        self.chars.next();
                        value /= self.parse_atom()?;
                    }
                    _ => return self.ensure_finite(value),
                }
            }
        }

        fn parse_atom(&mut self) -> Result<f64, ParseQasmError> {
            self.skip_ws();
            match self.chars.peek().copied() {
                Some('-') => {
                    self.chars.next();
                    Ok(-self.parse_atom()?)
                }
                Some('+') => {
                    self.chars.next();
                    self.parse_atom()
                }
                Some('(') => {
                    self.chars.next();
                    let value = self.parse_sum()?;
                    self.skip_ws();
                    if self.chars.next() != Some(')') {
                        return Err(err(self.line, "expected ')' in angle expression"));
                    }
                    Ok(value)
                }
                Some(c) if c.is_ascii_digit() || c == '.' => {
                    let mut num = String::new();
                    let mut seen_dot = false;
                    while let Some(&c) = self.chars.peek() {
                        let in_exponent = num.contains(['e', 'E']);
                        let take = c.is_ascii_digit()
                            || c == 'e'
                            || c == 'E'
                            // A sign is part of the number only directly
                            // after the exponent marker (`2e+3`, `2e-3`).
                            || ((c == '-' || c == '+') && num.ends_with(['e', 'E']))
                            || (c == '.' && !in_exponent);
                        if !take {
                            break;
                        }
                        if c == '.' {
                            if seen_dot {
                                return Err(err(
                                    self.line,
                                    format!("invalid number '{num}.': unexpected second '.'"),
                                ));
                            }
                            seen_dot = true;
                        }
                        num.push(c);
                        self.chars.next();
                    }
                    let value = num
                        .parse::<f64>()
                        .map_err(|_| err(self.line, format!("invalid number '{num}'")))?;
                    self.ensure_finite(value)
                }
                Some(c) if c.is_ascii_alphabetic() => {
                    let mut ident = String::new();
                    while matches!(self.chars.peek(), Some(c) if c.is_ascii_alphanumeric() || *c == '_')
                    {
                        ident.push(self.chars.next().expect("peeked"));
                    }
                    if ident.eq_ignore_ascii_case("pi") {
                        Ok(std::f64::consts::PI)
                    } else {
                        Err(err(
                            self.line,
                            format!("unknown identifier '{ident}' in angle"),
                        ))
                    }
                }
                other => Err(err(
                    self.line,
                    format!("unexpected character {other:?} in angle expression"),
                )),
            }
        }
    }

    let mut parser = Parser {
        chars: text.chars().peekable(),
        line,
    };
    let value = parser.parse_sum()?;
    parser.skip_ws();
    if parser.chars.next().is_some() {
        return Err(err(
            line,
            format!("trailing characters in expression '{text}'"),
        ));
    }
    Ok(value)
}

/// Splits a `name[index]` token into its name and bracketed index text,
/// rejecting tokens where the brackets are missing or out of order.
fn split_indexed(token: &str, line: usize) -> Result<(&str, &str), ParseQasmError> {
    let open = token
        .find('[')
        .ok_or_else(|| err(line, format!("expected indexed operand, got '{token}'")))?;
    let close = token
        .find(']')
        .filter(|&close| close > open)
        .ok_or_else(|| err(line, format!("missing ']' in operand '{token}'")))?;
    Ok((&token[..open], &token[open + 1..close]))
}

/// Parses a `name[size]` register declaration body.
fn parse_declaration(rest: &str, line: usize, what: &str) -> Result<(String, u16), ParseQasmError> {
    let (name, size_text) =
        split_indexed(rest, line).map_err(|_| err(line, format!("malformed {what}")))?;
    let size: u16 = size_text
        .parse()
        .map_err(|_| err(line, format!("invalid {what} size")))?;
    Ok((name.trim().to_string(), size))
}

/// Parses a qubit operand of the form `name[index]`.
fn parse_operand(token: &str, line: usize, register: &str) -> Result<Qubit, ParseQasmError> {
    let token = token.trim();
    let (name, index_text) = split_indexed(token, line)?;
    if name != register {
        return Err(err(
            line,
            format!("operand register '{name}' does not match declared register '{register}'"),
        ));
    }
    let index: u16 = index_text
        .parse()
        .map_err(|_| err(line, format!("invalid qubit index in '{token}'")))?;
    Ok(Qubit(index))
}

/// Parses OpenQASM 2.0 text into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`ParseQasmError`] with a line number for statements outside the
/// supported subset, undeclared registers, malformed operands or angles.
///
/// # Examples
///
/// ```
/// let source = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     h q[0];
///     cx q[0],q[1];
/// "#;
/// let circuit = circuit::qasm::parse(source)?;
/// assert_eq!(circuit.num_qubits(), 2);
/// assert_eq!(circuit.len(), 2);
/// # Ok::<(), circuit::qasm::ParseQasmError>(())
/// ```
pub fn parse(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut state = ParserState {
        circuit: None,
        register: String::from("q"),
        creg: None,
    };

    // Statements are ';'-terminated; track line numbers for diagnostics.
    let mut line_no = 1usize;
    for raw_line in source.lines() {
        let line = raw_line.split("//").next().unwrap_or("").trim();
        let current_line = line_no;
        line_no += 1;
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, current_line, &mut state)?;
        }
    }

    state
        .circuit
        .ok_or_else(|| err(line_no, "no qreg declaration found"))
}

/// Mutable parsing context threaded through the statements.
struct ParserState {
    circuit: Option<Circuit>,
    /// The declared quantum register name.
    register: String,
    /// The declared classical register, if any: `(name, size)`.
    creg: Option<(String, u16)>,
}

/// Parses a `name[index]` classical-bit operand against the declared creg.
fn parse_cbit(token: &str, line: usize, creg: &(String, u16)) -> Result<u16, ParseQasmError> {
    let token = token.trim();
    let (name, size) = creg;
    let (operand_name, index_text) = split_indexed(token, line).map_err(|_| {
        err(
            line,
            format!("expected indexed classical operand, got '{token}'"),
        )
    })?;
    if operand_name != name {
        return Err(err(
            line,
            format!("classical register '{operand_name}' does not match declared creg '{name}'"),
        ));
    }
    let index: u16 = index_text
        .parse()
        .map_err(|_| err(line, format!("invalid classical bit index in '{token}'")))?;
    if index >= *size {
        return Err(err(
            line,
            format!("classical bit index {index} outside creg {name}[{size}]"),
        ));
    }
    Ok(index)
}

/// Parses the operand part of a `measure` statement (`q[i] -> c[j]` or the
/// broadcast `q -> c`) into [`Operation::Measure`] operations, checking both
/// operands against the declared registers.
fn parse_measure_ops(
    rest: &str,
    line: usize,
    register: &str,
    creg: &(String, u16),
    num_qubits: u16,
) -> Result<Vec<Operation>, ParseQasmError> {
    let (qubit_text, cbit_text) = rest
        .split_once("->")
        .ok_or_else(|| err(line, "measure statement requires 'qubit -> clbit'"))?;
    let qubit_text = qubit_text.trim();
    let cbit_text = cbit_text.trim();
    if qubit_text.contains('[') {
        let qubit = parse_operand(qubit_text, line, register)?;
        let cbit = parse_cbit(cbit_text, line, creg)?;
        return Ok(vec![Operation::Measure { qubit, cbit }]);
    }
    // Broadcast form `measure q -> c;`: qubit k into clbit k.
    if qubit_text != register {
        return Err(err(
            line,
            format!(
                "operand register '{qubit_text}' does not match declared register '{register}'"
            ),
        ));
    }
    if cbit_text != creg.0 {
        return Err(err(
            line,
            format!(
                "classical register '{cbit_text}' does not match declared creg '{}'",
                creg.0
            ),
        ));
    }
    if creg.1 < num_qubits {
        return Err(err(
            line,
            format!(
                "broadcast measure needs creg size >= {num_qubits} qubits, got {}",
                creg.1
            ),
        ));
    }
    Ok((0..num_qubits)
        .map(|q| Operation::Measure {
            qubit: Qubit(q),
            cbit: q,
        })
        .collect())
}

/// Parses the operand part of a `reset` statement (`q[i]` or the broadcast
/// `q`) into [`Operation::Reset`] operations.
fn parse_reset_ops(
    rest: &str,
    line: usize,
    register: &str,
    num_qubits: u16,
) -> Result<Vec<Operation>, ParseQasmError> {
    let target = rest.trim();
    if target.contains('[') {
        let qubit = parse_operand(target, line, register)?;
        return Ok(vec![Operation::Reset { qubit }]);
    }
    if target != register {
        return Err(err(
            line,
            format!("operand register '{target}' does not match declared register '{register}'"),
        ));
    }
    Ok((0..num_qubits)
        .map(|q| Operation::Reset { qubit: Qubit(q) })
        .collect())
}

fn parse_statement(stmt: &str, line: usize, state: &mut ParserState) -> Result<(), ParseQasmError> {
    let (head, rest) = match stmt.find(|c: char| c.is_whitespace() || c == '(') {
        Some(pos) => (&stmt[..pos], stmt[pos..].trim_start()),
        None => (stmt, ""),
    };

    // Disjoint borrows of the parser state, so statement handlers can read
    // the register names while mutating the circuit without cloning.
    let ParserState {
        circuit: parsed_circuit,
        register,
        creg: parsed_creg,
    } = state;

    match head {
        "OPENQASM" | "include" | "barrier" => Ok(()),
        "qreg" => {
            let (name, size) = parse_declaration(rest, line, "qreg")?;
            if let Some(existing) = parsed_circuit {
                return Err(err(
                    line,
                    format!(
                        "multiple qreg declarations are not supported (already have {} qubits)",
                        existing.num_qubits()
                    ),
                ));
            }
            *register = name;
            let mut circuit = Circuit::new(size);
            if let Some((_, creg_size)) = parsed_creg {
                circuit.set_num_clbits(*creg_size);
            }
            *parsed_circuit = Some(circuit);
            Ok(())
        }
        "creg" => {
            let (name, size) = parse_declaration(rest, line, "creg")?;
            if parsed_creg.is_some() {
                return Err(err(line, "multiple creg declarations are not supported"));
            }
            if let Some(circuit) = parsed_circuit.as_mut() {
                circuit.set_num_clbits(size);
            }
            *parsed_creg = Some((name, size));
            Ok(())
        }
        "measure" => {
            let creg = parsed_creg
                .as_ref()
                .ok_or_else(|| err(line, "measure statement before creg declaration"))?;
            let circuit = parsed_circuit
                .as_mut()
                .ok_or_else(|| err(line, "statement before qreg declaration"))?;
            for op in parse_measure_ops(rest, line, register, creg, circuit.num_qubits())? {
                circuit.push(op);
            }
            Ok(())
        }
        "reset" => {
            let circuit = parsed_circuit
                .as_mut()
                .ok_or_else(|| err(line, "statement before qreg declaration"))?;
            for op in parse_reset_ops(rest, line, register, circuit.num_qubits())? {
                circuit.push(op);
            }
            Ok(())
        }
        "if" => {
            let creg = parsed_creg
                .as_ref()
                .ok_or_else(|| err(line, "if statement before creg declaration"))?;
            let circuit = parsed_circuit
                .as_mut()
                .ok_or_else(|| err(line, "statement before qreg declaration"))?;
            let rest = rest.trim_start();
            let inner = rest
                .strip_prefix('(')
                .ok_or_else(|| err(line, "if statement requires a '(creg==value)' condition"))?;
            let close = inner
                .find(')')
                .ok_or_else(|| err(line, "missing ')' in if condition"))?;
            let (condition_text, guarded_stmt) = (&inner[..close], inner[close + 1..].trim());
            let (name, value_text) = condition_text
                .split_once("==")
                .ok_or_else(|| err(line, "if condition must be of the form 'creg==value'"))?;
            let (name, value_text) = (name.trim(), value_text.trim());
            if name != creg.0 {
                return Err(err(
                    line,
                    format!(
                        "condition register '{name}' does not match declared creg '{}'",
                        creg.0
                    ),
                ));
            }
            let value: u64 = value_text
                .parse()
                .map_err(|_| err(line, format!("invalid condition value '{value_text}'")))?;
            if creg.1 < 64 && value >> creg.1 != 0 {
                return Err(err(
                    line,
                    format!(
                        "condition value {value} does not fit creg {}[{}]",
                        creg.0, creg.1
                    ),
                ));
            }
            if guarded_stmt.is_empty() {
                return Err(err(
                    line,
                    "if condition must be followed by a gate statement",
                ));
            }
            let guarded_head = guarded_stmt
                .split(|c: char| c.is_whitespace() || c == '(')
                .next()
                .unwrap_or("");
            if matches!(
                guarded_head,
                "if" | "barrier" | "qreg" | "creg" | "OPENQASM" | "include"
            ) {
                return Err(err(
                    line,
                    format!(
                        "only gate, measure and reset statements can be conditioned, got '{guarded_head}'"
                    ),
                ));
            }
            // Parse the guarded statement (a gate, a measure or a reset),
            // then wrap every operation it produced in the condition.
            //
            // The per-operation guards re-evaluate against the *current*
            // register, which matches OpenQASM 2.0's condition-once-per-
            // statement semantics for everything we expand — except a
            // broadcast measure, where an earlier guarded measure could
            // rewrite the compared register and disable the rest of the
            // expansion.  (Broadcast resets are fine: resets never write the
            // register, so the guard cannot change mid-expansion.)
            let guarded_ops: Vec<Operation> = match guarded_head {
                "measure" => {
                    let guarded_rest = guarded_stmt["measure".len()..].trim_start();
                    let is_broadcast = guarded_rest
                        .split_once("->")
                        .is_some_and(|(qubit_text, _)| !qubit_text.contains('['));
                    if is_broadcast {
                        return Err(err(
                            line,
                            "broadcast measure cannot be conditioned: an earlier guarded \
                             measure would rewrite the compared register; condition each \
                             'measure q[i] -> c[j]' individually",
                        ));
                    }
                    parse_measure_ops(guarded_rest, line, register, creg, circuit.num_qubits())?
                }
                "reset" => {
                    let guarded_rest = guarded_stmt["reset".len()..].trim_start();
                    parse_reset_ops(guarded_rest, line, register, circuit.num_qubits())?
                }
                _ => {
                    let mut scratch = Circuit::new(circuit.num_qubits());
                    parse_gate(guarded_stmt, line, &mut scratch, register)?;
                    scratch.operations().to_vec()
                }
            };
            for op in guarded_ops {
                circuit.push(Operation::Conditioned {
                    condition: Condition::equals(value),
                    op: Box::new(op),
                });
            }
            Ok(())
        }
        _ => {
            let circuit = parsed_circuit
                .as_mut()
                .ok_or_else(|| err(line, "statement before qreg declaration"))?;
            parse_gate(stmt, line, circuit, register)
        }
    }
}

fn parse_gate(
    stmt: &str,
    line: usize,
    circuit: &mut Circuit,
    register: &str,
) -> Result<(), ParseQasmError> {
    // Split "name(args) operands" into name, optional args, operands.
    let (name_and_args, operands_text) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) if !stmt[..pos].contains('(') || stmt[..pos].contains(')') => {
            (&stmt[..pos], &stmt[pos..])
        }
        _ => {
            // The gate has parenthesised args that may contain spaces.
            let close = stmt
                .find(')')
                .ok_or_else(|| err(line, format!("malformed gate statement '{stmt}'")))?;
            (&stmt[..=close], &stmt[close + 1..])
        }
    };
    let (name, args) = match name_and_args.find('(') {
        Some(open) => {
            let close = name_and_args
                .rfind(')')
                .ok_or_else(|| err(line, "missing ')' in gate arguments"))?;
            (
                &name_and_args[..open],
                Some(&name_and_args[open + 1..close]),
            )
        }
        None => (name_and_args, None),
    };
    let operands: Vec<Qubit> = operands_text
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| parse_operand(t, line, register))
        .collect::<Result<_, _>>()?;

    let angle = |args: Option<&str>| -> Result<Angle, ParseQasmError> {
        let text = args.ok_or_else(|| err(line, format!("gate '{name}' requires an angle")))?;
        Ok(Angle::Radians(eval_expr(text, line)?))
    };
    let expect = |n: usize| -> Result<(), ParseQasmError> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("gate '{name}' expects {n} operands, got {}", operands.len()),
            ))
        }
    };

    match name {
        "id" => {
            expect(1)?;
            // Preserved, not dropped: the round trip must keep the operation
            // list (and hence the fingerprint) exactly.
            circuit.gate(OneQubitGate::I, operands[0]);
            Ok(())
        }
        "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" | "sx" | "sxdg" | "sy" | "sydg" => {
            expect(1)?;
            let gate = match name {
                "x" => OneQubitGate::X,
                "y" => OneQubitGate::Y,
                "z" => OneQubitGate::Z,
                "h" => OneQubitGate::H,
                "s" => OneQubitGate::S,
                "sdg" => OneQubitGate::Sdg,
                "t" => OneQubitGate::T,
                "tdg" => OneQubitGate::Tdg,
                "sx" => OneQubitGate::SqrtX,
                "sxdg" => OneQubitGate::SqrtXdg,
                "sy" => OneQubitGate::SqrtY,
                _ => OneQubitGate::SqrtYdg,
            };
            circuit.gate(gate, operands[0]);
            Ok(())
        }
        "p" | "u1" => {
            expect(1)?;
            let a = angle(args)?;
            circuit.p(a, operands[0]);
            Ok(())
        }
        "rx" | "ry" | "rz" => {
            expect(1)?;
            let a = angle(args)?;
            match name {
                "rx" => circuit.rx(a, operands[0]),
                "ry" => circuit.ry(a, operands[0]),
                _ => circuit.rz(a, operands[0]),
            };
            Ok(())
        }
        "u" | "u3" => {
            expect(1)?;
            let text = args.ok_or_else(|| err(line, "u gate requires three angles"))?;
            let parts: Vec<&str> = text.split(',').collect();
            if parts.len() != 3 {
                return Err(err(line, "u gate requires three angles"));
            }
            let theta = Angle::Radians(eval_expr(parts[0], line)?);
            let phi = Angle::Radians(eval_expr(parts[1], line)?);
            let lambda = Angle::Radians(eval_expr(parts[2], line)?);
            circuit.gate(OneQubitGate::U { theta, phi, lambda }, operands[0]);
            Ok(())
        }
        "cx" | "CX" => {
            expect(2)?;
            circuit.cx(operands[0], operands[1]);
            Ok(())
        }
        "cz" => {
            expect(2)?;
            circuit.cz(operands[0], operands[1]);
            Ok(())
        }
        "cp" | "cu1" => {
            expect(2)?;
            let a = angle(args)?;
            circuit.cp(a, operands[0], operands[1]);
            Ok(())
        }
        "swap" => {
            expect(2)?;
            circuit.swap(operands[0], operands[1]);
            Ok(())
        }
        "cswap" => {
            expect(3)?;
            circuit.cswap(operands[0], operands[1], operands[2]);
            Ok(())
        }
        "ccx" => {
            expect(3)?;
            circuit.ccx(operands[0], operands[1], operands[2]);
            Ok(())
        }
        other => Err(err(line, format!("unsupported gate '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Operation;

    #[test]
    fn parses_bell_circuit_with_terminal_measurement() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n";
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_clbits(), 2);
        // h, cx, plus one broadcast measurement per qubit.
        assert_eq!(c.len(), 4);
        assert!(c.has_measurements());
        assert_eq!(c.terminal_measurements_start(), Some(2));
        let (prefix, mapping) = c.split_terminal_measurements(2);
        assert_eq!(prefix.len(), 2);
        assert_eq!(mapping, vec![(Qubit(0), 0), (Qubit(1), 1)]);
    }

    #[test]
    fn parses_mid_circuit_measure_and_reset() {
        let src = "qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[1];\nreset q[0];\nh q[0];\nmeasure q[0] -> c[0];\n";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.is_dynamic());
        assert_eq!(c.num_clbits(), 2);
        match &c.operations()[1] {
            Operation::Measure { qubit, cbit } => {
                assert_eq!(*qubit, Qubit(0));
                assert_eq!(*cbit, 1);
            }
            other => panic!("unexpected op {other:?}"),
        }
        assert!(matches!(
            c.operations()[2],
            Operation::Reset { qubit: Qubit(0) }
        ));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn reset_broadcast_covers_every_qubit() {
        let c = parse("qreg q[3]; reset q;").unwrap();
        assert_eq!(c.len(), 3);
        assert!(c
            .operations()
            .iter()
            .all(|op| matches!(op, Operation::Reset { .. })));
    }

    #[test]
    fn creg_before_qreg_is_honoured() {
        let c = parse("creg c[3]; qreg q[2]; measure q[1] -> c[2];").unwrap();
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn measure_without_creg_is_rejected() {
        let e = parse("qreg q[1]; measure q[0] -> c[0];").unwrap_err();
        assert!(e.message.contains("before creg"));
    }

    #[test]
    fn measure_rejects_out_of_range_clbit() {
        let e = parse("qreg q[1]; creg c[1]; measure q[0] -> c[4];").unwrap_err();
        assert!(e.message.contains("outside creg"));
    }

    #[test]
    fn measure_rejects_mismatched_registers() {
        let e = parse("qreg q[1]; creg c[1]; measure q[0] -> d[0];").unwrap_err();
        assert!(e.message.contains("does not match declared creg"));
        let e = parse("qreg q[2]; creg c[1]; measure q -> c;").unwrap_err();
        assert!(e.message.contains("creg size"));
    }

    #[test]
    fn duplicate_creg_is_rejected() {
        let e = parse("qreg q[1]; creg c[1]; creg d[1];").unwrap_err();
        assert!(e.message.contains("multiple creg"));
    }

    #[test]
    fn out_of_order_brackets_error_instead_of_panicking() {
        // `]` before `[` used to slice with start > end and panic.
        for src in [
            "creg c]1[4]; qreg q[2];",
            "qreg q]1[4];",
            "qreg q[2]; h q]0[;",
            "qreg q[1]; creg c[1]; measure q[0] -> c]0[;",
            "qreg q[2]; reset q]0[;",
        ] {
            let e = parse(src).unwrap_err();
            assert!(
                e.message.contains("malformed")
                    || e.message.contains("missing ']'")
                    || e.message.contains("expected indexed"),
                "unexpected message for {src:?}: {}",
                e.message
            );
        }
    }

    #[test]
    fn parses_angles_with_pi_expressions() {
        let src = "qreg q[1]; p(pi/2) q[0]; rz(-pi/4) q[0]; rx(2*pi/3) q[0]; ry(0.5) q[0];";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 4);
        match &c.operations()[0] {
            Operation::Unitary {
                gate: OneQubitGate::Phase(a),
                ..
            } => assert!((a.radians() - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        match &c.operations()[2] {
            Operation::Unitary {
                gate: OneQubitGate::Rx(a),
                ..
            } => assert!((a.radians() - 2.0 * std::f64::consts::PI / 3.0).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_gate() {
        let e = parse("qreg q[1]; frobnicate q[0];").unwrap_err();
        assert!(e.message.contains("unsupported gate"));
    }

    #[test]
    fn rejects_gate_before_qreg() {
        let e = parse("h q[0];").unwrap_err();
        assert!(e.message.contains("before qreg"));
    }

    #[test]
    fn rejects_wrong_operand_count() {
        let e = parse("qreg q[2]; cx q[0];").unwrap_err();
        assert!(e.message.contains("expects 2 operands"));
    }

    #[test]
    fn rejects_out_of_register_name() {
        let e = parse("qreg q[2]; h r[0];").unwrap_err();
        assert!(e.message.contains("does not match"));
    }

    #[test]
    fn ignores_barriers_and_comments() {
        let src = "// a comment\nqreg q[2];\nbarrier q;\nh q[0]; // trailing comment\n";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn parses_u_gate() {
        let c = parse("qreg q[1]; u(pi/2,0,pi) q[0];").unwrap();
        match &c.operations()[0] {
            Operation::Unitary {
                gate: OneQubitGate::U { theta, .. },
                ..
            } => assert!((theta.radians() - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expression_evaluator_handles_precedence() {
        assert!((eval_expr("1+2*3", 0).unwrap() - 7.0).abs() < 1e-12);
        assert!((eval_expr("(1+2)*3", 0).unwrap() - 9.0).abs() < 1e-12);
        assert!((eval_expr("-pi/2", 0).unwrap() + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((eval_expr("1e-3", 0).unwrap() - 1e-3).abs() < 1e-15);
        assert!(eval_expr("1++", 0).is_err());
        assert!(eval_expr("foo", 0).is_err());
    }

    #[test]
    fn rejects_double_qreg() {
        let e = parse("qreg q[2]; qreg r[2];").unwrap_err();
        assert!(e.message.contains("multiple qreg"));
    }

    #[test]
    fn scientific_notation_with_explicit_plus_exponent_parses() {
        // Regression: the number lexer only admitted '-' after 'e'/'E', so
        // `2e+3` lexed as `2e` and errored as an invalid number.
        let c = parse("qreg q[1]; rz(2e+3) q[0]; rz(1E+2) q[0];").unwrap();
        match &c.operations()[0] {
            Operation::Unitary {
                gate: OneQubitGate::Rz(a),
                ..
            } => assert!((a.radians() - 2e3).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        match &c.operations()[1] {
            Operation::Unitary {
                gate: OneQubitGate::Rz(a),
                ..
            } => assert!((a.radians() - 1e2).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        assert!((eval_expr("2e+3", 0).unwrap() - 2000.0).abs() < 1e-9);
        assert!((eval_expr("-1.5e+2", 0).unwrap() + 150.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_angle_expressions_are_rejected() {
        // Regression: `pi/0` silently produced an infinite angle and built a
        // garbage gate instead of erroring.
        for src in [
            "qreg q[1]; rz(pi/0) q[0];",
            "qreg q[1]; p(0/0) q[0];",
            "qreg q[1]; rx(1e308*10) q[0];",
            "qreg q[1]; ry(1e999) q[0];",
        ] {
            let e = parse(src).unwrap_err();
            assert!(
                e.message.contains("non-finite"),
                "unexpected message for {src:?}: {}",
                e.message
            );
            assert_eq!(e.line, 1);
        }
        assert!(eval_expr("pi/0", 7).is_err());
        assert_eq!(eval_expr("pi/0", 7).unwrap_err().line, 7);
    }

    #[test]
    fn multi_dot_literals_are_rejected_with_a_clear_message() {
        // Regression: `1.2.3` was consumed whole and surfaced as a confusing
        // f64 parse failure.
        let e = parse("qreg q[1]; rz(1.2.3) q[0];").unwrap_err();
        assert!(
            e.message.contains("unexpected second '.'"),
            "unexpected message: {}",
            e.message
        );
        // A dot inside the exponent is not part of the number either.
        assert!(eval_expr("1e3.5", 0).is_err());
        // Plain decimals still work.
        assert!((eval_expr(".5", 0).unwrap() - 0.5).abs() < 1e-12);
        assert!((eval_expr("1.25", 0).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn parses_classically_conditioned_gates() {
        let src = "qreg q[2]; creg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif (c==1) x q[1];\nif(c==3)rz(pi/2) q[0];\nif (c == 2) cx q[0],q[1];";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.is_dynamic());
        assert!(c.validate().is_ok());
        match &c.operations()[2] {
            Operation::Conditioned { condition, op } => {
                assert_eq!(condition.value, 1);
                assert!(matches!(
                    op.as_ref(),
                    Operation::Unitary {
                        gate: OneQubitGate::X,
                        target: Qubit(1),
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.operations()[3].condition().unwrap().value, 3);
        match &c.operations()[4] {
            Operation::Conditioned { condition, op } => {
                assert_eq!(condition.value, 2);
                assert_eq!(op.controls(), &[Qubit(0)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_statement_requires_a_declared_matching_creg() {
        let e = parse("qreg q[1]; if (c==0) x q[0];").unwrap_err();
        assert!(e.message.contains("before creg"));
        let e = parse("qreg q[1]; creg c[1]; if (d==0) x q[0];").unwrap_err();
        assert!(e.message.contains("does not match declared creg"));
        let e = parse("qreg q[1]; creg c[1]; if (c==5) x q[0];").unwrap_err();
        assert!(e.message.contains("does not fit creg"));
        let e = parse("qreg q[1]; creg c[1]; if (c==x) x q[0];").unwrap_err();
        assert!(e.message.contains("invalid condition value"));
        let e = parse("qreg q[1]; creg c[1]; if c==0 x q[0];").unwrap_err();
        assert!(e.message.contains("requires a '(creg==value)'"));
        let e = parse("qreg q[1]; creg c[1]; if (c==0;").unwrap_err();
        assert!(e.message.contains("missing ')'"));
        let e = parse("qreg q[1]; creg c[1]; if (c=0) x q[0];").unwrap_err();
        assert!(e.message.contains("'creg==value'"));
        let e = parse("qreg q[1]; creg c[1]; if (c==0);").unwrap_err();
        assert!(e.message.contains("followed by a gate statement"));
    }

    #[test]
    fn parses_conditioned_measure_and_reset() {
        let src = "qreg q[2]; creg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif (c==1) reset q[0];\nif (c==1) measure q[1] -> c[1];";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 4);
        assert!(c.is_dynamic());
        assert!(c.validate().is_ok());
        match &c.operations()[2] {
            Operation::Conditioned { condition, op } => {
                assert_eq!(condition.value, 1);
                assert!(matches!(op.as_ref(), Operation::Reset { qubit: Qubit(0) }));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &c.operations()[3] {
            Operation::Conditioned { condition, op } => {
                assert_eq!(condition.value, 1);
                assert!(matches!(
                    op.as_ref(),
                    Operation::Measure {
                        qubit: Qubit(1),
                        cbit: 1
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conditioned_broadcast_reset_expands_per_qubit() {
        // Resets never write the register, so guarding each qubit's reset
        // individually is exactly the condition-once statement semantics.
        let c = parse("qreg q[2]; creg c[2]; if (c==0) reset q;").unwrap();
        assert_eq!(c.len(), 2);
        for (i, op) in c.operations().iter().enumerate() {
            let Operation::Conditioned { op, .. } = op else {
                panic!("op {i} is not conditioned: {op}");
            };
            assert!(matches!(op.as_ref(), Operation::Reset { .. }));
        }
    }

    #[test]
    fn conditioned_broadcast_measure_is_rejected() {
        // An earlier guarded measure of the expansion would rewrite the
        // compared register and disable the later ones, diverging from the
        // spec's evaluate-the-condition-once semantics — so the form errors
        // instead of silently changing meaning.
        let e = parse("qreg q[2]; creg c[2]; if (c==3) measure q -> c;").unwrap_err();
        assert!(
            e.message
                .contains("broadcast measure cannot be conditioned"),
            "unexpected message: {}",
            e.message
        );
    }

    #[test]
    fn conditioned_measure_checks_its_operands() {
        let e = parse("qreg q[1]; creg c[1]; if (c==0) measure q[0] -> c[4];").unwrap_err();
        assert!(e.message.contains("outside creg"));
        let e = parse("qreg q[1]; creg c[1]; if (c==0) measure q[0] -> d[0];").unwrap_err();
        assert!(e.message.contains("does not match declared creg"));
        let e = parse("qreg q[1]; creg c[1]; if (c==0) reset r[0];").unwrap_err();
        assert!(e.message.contains("does not match declared register"));
        let e = parse("qreg q[1]; creg c[1]; if (c==0) measure q[0];").unwrap_err();
        assert!(e.message.contains("requires 'qubit -> clbit'"));
    }

    #[test]
    fn declarations_and_nested_ifs_cannot_be_conditioned() {
        for (src, head) in [
            ("qreg q[1]; creg c[1]; if (c==0) if (c==0) x q[0];", "if"),
            ("qreg q[1]; creg c[1]; if (c==0) barrier q;", "barrier"),
            ("qreg q[1]; creg c[1]; if (c==0) creg d[1];", "creg"),
        ] {
            let e = parse(src).unwrap_err();
            assert!(
                e.message
                    .contains("only gate, measure and reset statements can be conditioned")
                    && e.message.contains(head),
                "unexpected message for {src:?}: {}",
                e.message
            );
        }
    }
}
